import warnings

import numpy as np
import pytest

from tempospike import graph
from tempospike.engine import SurrogateConfig, Tape, Tensor, mse
from tempospike.graph import (
    ArchSpec,
    GraphError,
    LayerSpec,
    Network,
    TSkip,
    dumps_spec,
    from_shorthand,
    infer_shapes,
    loads_spec,
    mlp_spec,
    param_count,
    parse_layer_token,
    run_forward,
    spec_from_dict,
    spec_to_dict,
    validate,
)
from tempospike.trainer import readout_logits

SURR = SurrogateConfig(2.0)


def linear_spec(widths, T, tskips=()):
    """Dense stack with plain affine layers (no spiking), for exact traces."""
    layers = tuple(LayerSpec(kind="dense", out=w, activation="linear") for w in widths[1:])
    return ArchSpec(input_shape=(widths[0],), layers=layers, tskips=tuple(tskips), T=T)


def set_identity(net, layer_index):
    w = net.params[f"L{layer_index}.w"]
    n = w.shape[1]
    w.data[...] = np.eye(w.shape[0], n)
    net.params[f"L{layer_index}.b"].data[...] = 0.0


class TestValidate:
    def test_clean_spec(self):
        assert validate(mlp_spec([10, 8, 4], T=5)) == []

    def test_backward_zero_delay_is_cycle(self):
        spec = mlp_spec([10, 8, 8, 4], T=5, tskips=[TSkip(3, 1, 0)])
        assert any("same-step cycle" in v for v in validate(spec))

    def test_forward_zero_delay_is_fine(self):
        spec = mlp_spec([10, 8, 8, 4], T=5, tskips=[TSkip(1, 3, 0)])
        assert validate(spec) == []

    def test_delay_at_sequence_length(self):
        spec = mlp_spec([10, 8, 4], T=5, tskips=[TSkip(0, 2, 5)])
        assert any("exceeds sequence length" in v for v in validate(spec))

    def test_same_layer_rejected(self):
        spec = mlp_spec([10, 8, 4], T=5, tskips=[TSkip(1, 1, 2)])
        assert any("same layer" in v for v in validate(spec))

    def test_out_of_range_indices(self):
        spec = mlp_spec([10, 8, 4], T=5, tskips=[TSkip(0, 9, 1)])
        assert any("destination outside" in v for v in validate(spec))

    def test_conv_spatial_mismatch(self):
        spec = ArchSpec(
            input_shape=(1, 8, 8),
            layers=(LayerSpec("conv2d", 2, kernel=3, stride=2),
                    LayerSpec("conv2d", 2, kernel=3, stride=1),
                    LayerSpec("dense", 4, activation="li")),
            tskips=(TSkip(0, 2, 1),),  # 8x8 payload into a 4x4 stage
            T=4)
        assert any("spatial mismatch" in v for v in validate(spec))

    def test_add_after_concat_into_same_layer_rejected(self):
        # the add payload has the feed-forward width, not the concatenated one
        edges = [TSkip(0, 2, 1, merge="concat"), TSkip(1, 2, 1, merge="add")]
        spec = mlp_spec([4, 6, 6, 3], T=4, tskips=edges)
        assert any("add edge listed after a concat" in v for v in validate(spec))
        with pytest.raises(GraphError):
            Network.build(spec)
        assert validate(mlp_spec([4, 6, 6, 3], T=4, tskips=edges[::-1])) == []

    @pytest.mark.parametrize("fields, field", [
        ({"leak_init": float("nan")}, "leak_init"),
        ({"leak_init": 0.9995}, "leak_init"),
        ({"threshold_init": float("nan")}, "threshold_init"),
        ({"threshold_init": float("inf")}, "threshold_init"),
        ({"threshold_init": 0.005}, "threshold_init"),
        ({"tskips": [TSkip(0, 2, 1, alpha=True, alpha_init=float("nan"))]}, "alpha_init"),
        ({"tskips": [TSkip(0, 2, 1, alpha=True, alpha_init=float("-inf"))]}, "alpha_init"),
    ], ids=["leak NaN", "leak above the clamp", "threshold NaN", "threshold infinite",
            "threshold below the clamp", "alpha NaN", "alpha -inf"])
    def test_initial_value_out_of_range_rejected(self, fields, field):
        assert any(field in v for v in validate(mlp_spec([4, 6, 6, 3], T=4, **fields)))

    def test_never_raises_on_garbage(self):
        spec = ArchSpec(input_shape=(0,), layers=(LayerSpec("dense", 0, activation="nope"),),
                        T=0)
        assert isinstance(validate(spec), list)


class TestShapesAndParams:
    def test_single_dense_layer_count(self):
        spec = ArchSpec(input_shape=(700,),
                        layers=(LayerSpec("dense", 20, activation="linear"),), T=1)
        assert param_count(spec) == 700 * 20 + 20 == 14020

    def test_mlp_near_paper_scale(self):
        spec = mlp_spec([700, 124, 288, 144, 20], T=99)
        assert abs(param_count(spec) - 0.16e6) / 0.16e6 <= 0.10

    def test_concat_edge_grows_destination_fan_in(self):
        base = mlp_spec([700, 124, 288, 144, 20], T=99)
        skipped = mlp_spec([700, 124, 288, 144, 20], T=99,
                           tskips=[TSkip(0, 2, 16, merge="concat")])
        # payload is resized to the destination's feed-forward input width
        assert param_count(skipped) - param_count(base) == 124 * 288

    def test_add_edge_costs_nothing(self):
        base = mlp_spec([700, 124, 288, 144, 20], T=99)
        skipped = mlp_spec([700, 124, 288, 144, 20], T=99,
                           tskips=[TSkip(1, 3, 16, merge="add")])
        assert param_count(skipped) == param_count(base)

    def test_alpha_edge_adds_one(self):
        base = mlp_spec([10, 8, 4], T=5, tskips=[TSkip(0, 2, 1, merge="add")])
        blended = mlp_spec([10, 8, 4], T=5,
                           tskips=[TSkip(0, 2, 1, merge="add", alpha=True)])
        assert param_count(blended) == param_count(base) + 1

    def test_bntt_params_counted_when_enabled(self):
        plain = mlp_spec([10, 8, 4], T=5)
        normed = mlp_spec([10, 8, 4], T=5, bntt=True)
        assert param_count(normed) == param_count(plain) + 2 * 5 * 8

    def test_count_equals_built_parameter_sizes(self):
        rng = np.random.default_rng(11)
        seen = {"conv": 0, "concat": 0, "add": 0, "alpha": 0, "bntt": 0, "backward": 0}
        checked = 0
        while checked < 40:
            T = int(rng.integers(2, 6))
            if rng.random() < 0.5:
                shorthand = f"{int(rng.integers(1, 3))}x6x6-3c{int(rng.integers(2, 5))}s1-" \
                            f"1c{int(rng.integers(2, 5))}s{int(rng.integers(1, 3))}-3"
            else:
                shorthand = "-".join(str(int(w)) for w in rng.integers(2, 9, size=4))
            edges = [TSkip(int(rng.integers(0, 4)), int(rng.integers(1, 4)),
                           int(rng.integers(1, T)), merge=str(rng.choice(["concat", "add"])),
                           alpha=bool(rng.random() < 0.5))
                     for _ in range(int(rng.integers(0, 4)))]
            spec = from_shorthand(shorthand, T=T, tskips=edges, bntt=bool(rng.random() < 0.5))
            if validate(spec):
                continue
            net = Network.build(spec, seed=checked)
            assert param_count(spec) == sum(p.size for p in net.params.values()), spec
            checked += 1
            seen["conv"] += spec.layers[0].kind == "conv2d"
            seen["bntt"] += spec.bntt
            for e in spec.tskips:
                seen[e.merge] += 1
                seen["alpha"] += e.alpha
                seen["backward"] += not e.is_forward
        assert all(n >= 5 for n in seen.values()), seen

    def test_conv_shapes(self):
        spec = from_shorthand("2x8x8-3c4s2-3c4s1-10", T=3)
        assert infer_shapes(spec) == [(2, 8, 8), (4, 4, 4), (4, 4, 4), (10,)]


# the selections that earlier builds of these specs drew with seed 0; every
# checkpoint stores its selections as `sel::j` and must reload, so a change
# of the draw order fails here
PINNED_SELECTIONS = {
    "identity dense edge": (
        mlp_spec([4, 8, 8, 3], T=5, tskips=[TSkip(1, 2, 1, merge="add")]),
        [tuple(range(8))]),
    "dense edge of another width": (
        mlp_spec([4, 8, 6, 3], T=5, tskips=[TSkip(1, 2, 1, merge="add"), TSkip(0, 2, 2)]),
        [tuple(range(8)), (2, 3, 3, 3, 3, 0, 1, 3)]),
    "conv back edge 3->2": (
        from_shorthand("2x16x16-3c16s2-3c32s1-3c32s1-10", T=20,
                       tskips=[TSkip(3, 2, 4, merge="concat")], bntt=True, reset="hard"),
        [(17, 5, 3, 0, 2, 0, 14, 6, 4, 27, 21, 9, 12, 8, 20, 2)]),
}


class TestShortcut:
    def test_selection_applies(self):
        spec = linear_spec([3, 2, 2], T=1, tskips=[TSkip(0, 2, 0, merge="add")])
        net = Network.build(spec, seed=0)
        net.shortcuts[0] = (2, 0)
        out = graph._resize(net, 0, spec.tskips[0], Tensor(np.array([[1.0, 2.0, 3.0]])),
                            Tensor(np.zeros((1, 2))))
        assert out.data.tolist() == [[3.0, 1.0]]

    def test_identity_when_sizes_match(self):
        spec = linear_spec([5, 5, 5], T=2, tskips=[TSkip(0, 2, 1, merge="add")])
        net = Network.build(spec, seed=123)
        assert net.shortcuts == [tuple(range(5))]
        payload = Tensor(np.ones((2, 5)))
        assert graph._resize(net, 0, spec.tskips[0], payload, payload) is payload

    def test_deterministic_given_seed(self):
        spec = mlp_spec([7, 30, 30, 3], T=2, tskips=[TSkip(0, 2, 1)])
        a, b, c = (Network.build(spec, seed=s).shortcuts for s in (9, 9, 10))
        assert a == b != c
        assert len(a[0]) == 30 and set(a[0]) <= set(range(7))

    @pytest.mark.parametrize("name", sorted(PINNED_SELECTIONS))
    def test_selections_pinned(self, name):
        spec, selections = PINNED_SELECTIONS[name]
        assert Network.build(spec, seed=0).shortcuts == selections


class TestRunForward:
    def test_unknown_mode_refused(self):
        # a misspelt "train" would otherwise run an eval pass: no dropout and
        # no update of the BNTT statistics
        net, x = float32_fixture("backward_chunks")
        with pytest.raises(GraphError, match="'trian'") as err:
            run_forward(net, x, mode="trian")
        assert "\n" not in str(err.value)
        assert not net.state["L1.bntt_mean"].any()

    def test_forward_delay_shifts_payload(self):
        # one forward skip with delay 3 over T=4: the destination sees the
        # origin's step-0 output only at step 3, zeros before
        T, n = 4, 3
        spec = linear_spec([n, n, n], T, tskips=[TSkip(1, 2, 3, merge="add")])
        net = Network.build(spec, seed=0)
        set_identity(net, 1)
        set_identity(net, 2)
        x = np.random.default_rng(0).normal(size=(T, 2, n))
        out = run_forward(net, x)
        for t in range(T):
            expected = x[t] + (x[t - 3] if t >= 3 else 0.0)
            assert np.allclose(out.outputs[t].data, expected, atol=1e-12)

    def test_backward_unit_delay_is_vanilla_recurrence(self):
        # backward skip from the output to layer 1 with delay 1 turns the
        # identity stack into a running sum
        T, n = 5, 2
        spec = linear_spec([n, n, n], T, tskips=[TSkip(2, 1, 1, merge="add")])
        net = Network.build(spec, seed=0)
        set_identity(net, 1)
        set_identity(net, 2)
        x = np.random.default_rng(1).normal(size=(T, 1, n))
        out = run_forward(net, x)
        running = np.zeros((1, n))
        for t in range(T):
            running = running + x[t]
            assert np.allclose(out.outputs[t].data, running, atol=1e-12)

    def test_alpha_endpoints(self):
        T, n = 5, 3
        for raw, use_delayed in ((50.0, False), (-50.0, True)):
            spec = linear_spec([n, n, n], T,
                               tskips=[TSkip(0, 2, 2, merge="add", alpha=True,
                                             alpha_init=raw)])
            net = Network.build(spec, seed=0)
            set_identity(net, 1)
            set_identity(net, 2)
            x = np.abs(np.random.default_rng(2).normal(size=(T, 1, n)))
            out = run_forward(net, x)
            for t in range(T):
                payload = (x[t - 2] if t >= 2 else 0.0) if use_delayed else x[t]
                assert np.allclose(out.outputs[t].data, x[t] + payload, atol=1e-10)

    def test_zero_delay_forward_equals_independent_residual(self):
        # delta_t = 0, add merge, matching widths (identity shortcut) must be
        # bit-for-bit the classic residual connection, coded separately below
        T, b, n = 4, 3, 6
        spec = ArchSpec(
            input_shape=(n,),
            layers=(LayerSpec("dense", n), LayerSpec("dense", n),
                    LayerSpec("dense", 4, activation="li")),
            tskips=(TSkip(1, 3, 0, merge="add"),),
            T=T, reset="soft")
        net = Network.build(spec, seed=5)
        x = (np.random.default_rng(3).random((T, b, n)) < 0.4).astype(float)
        got = run_forward(net, x, surr=SURR)

        w = {k: v.data for k, v in net.params.items()}
        leak1, th1 = w["L1.leak"], w["L1.threshold"]
        leak2, th2 = w["L2.leak"], w["L2.threshold"]
        u1 = np.zeros((b, n)); o1 = np.zeros((b, n))
        u2 = np.zeros((b, n)); o2 = np.zeros((b, n))
        acc = np.zeros((b, 4))
        for t in range(T):
            u1 = (leak1 * u1 + (x[t] @ w["L1.w"] + w["L1.b"])) - th1 * o1
            o1 = (u1 / th1 - 1.0 > 0).astype(float)
            drive2 = x_in2 = o1 @ w["L2.w"] + w["L2.b"]
            u2 = (leak2 * u2 + drive2) - th2 * o2
            o2 = (u2 / th2 - 1.0 > 0).astype(float)
            merged3 = o2 + o1  # residual: skip adds layer 1's current output
            acc = w["L3.leak"] * acc + (merged3 @ w["L3.w"] + w["L3.b"])
            assert np.array_equal(got.outputs[t].data, acc)

    def test_no_skips_equals_straight_line_snn(self):
        # with every edge removed the executor must match a separately coded
        # plain unrolled spiking stack exactly
        T, b = 6, 2
        spec = mlp_spec([5, 7, 4, 3], T=T)
        net = Network.build(spec, seed=11)
        x = (np.random.default_rng(4).random((T, b, 5)) < 0.5).astype(float)
        got = run_forward(net, x, surr=SURR)

        w = {k: v.data for k, v in net.params.items()}
        sizes = [7, 4]
        u = [np.zeros((b, s)) for s in sizes]
        o = [np.zeros((b, s)) for s in sizes]
        acc = np.zeros((b, 3))
        for t in range(T):
            h = x[t]
            for i, s in enumerate(sizes, start=1):
                drive = h @ w[f"L{i}.w"] + w[f"L{i}.b"]
                u[i - 1] = (w[f"L{i}.leak"] * u[i - 1] + drive) \
                    - w[f"L{i}.threshold"] * o[i - 1]
                o[i - 1] = (u[i - 1] / w[f"L{i}.threshold"] - 1.0 > 0).astype(float)
                h = o[i - 1]
            acc = w["L3.leak"] * acc + (h @ w["L3.w"] + w["L3.b"])
            assert np.array_equal(got.outputs[t].data, acc)

    def test_causality_under_perturbation(self):
        rng = np.random.default_rng(6)
        spec = mlp_spec([6, 8, 8, 4], T=8,
                        tskips=[TSkip(0, 2, 3, merge="concat"),
                                TSkip(3, 1, 2, merge="add")])
        net = Network.build(spec, seed=2)
        x = (rng.random((8, 2, 6)) < 0.4).astype(float)
        base = run_forward(net, x, surr=SURR)
        t0 = 4
        xp = x.copy()
        xp[t0] = 1.0 - xp[t0]
        pert = run_forward(net, xp, surr=SURR)
        for t in range(t0):
            assert np.array_equal(base.outputs[t].data, pert.outputs[t].data)

    def test_deterministic(self):
        spec = mlp_spec([6, 8, 4], T=5, tskips=[TSkip(0, 2, 2)])
        net = Network.build(spec, seed=3)
        x = (np.random.default_rng(7).random((5, 2, 6)) < 0.4).astype(float)
        a = run_forward(net, x, surr=SURR)
        b = run_forward(net, x, surr=SURR)
        for ta, tb in zip(a.outputs, b.outputs):
            assert np.array_equal(ta.data, tb.data)

    def test_wrong_time_dim_rejected(self):
        spec = mlp_spec([6, 4], T=5)
        net = Network.build(spec, seed=0)
        with pytest.raises(GraphError, match="time dim"):
            run_forward(net, np.zeros((4, 2, 6)))

    @pytest.mark.parametrize("shape, kwargs, error, message", [
        ((5, 2, 7), {}, GraphError, r"^input feature shape \(7,\) != \(6,\)$"),
        ((5, 2, 6), {"dropout": 1.0}, ValueError, r"^dropout must lie in \[0, 1\), got 1\.0$"),
        ((5, 2, 6), {"dropout": -0.1}, ValueError, r"^dropout must lie in \[0, 1\), got -0\.1$"),
        ((5, 2, 6), {"mode": "train", "dropout": 0.5}, ValueError,
         r"^training with dropout needs an rng$"),
    ], ids=["feature shape", "dropout 1", "dropout below 0", "train dropout without rng"])
    def test_bad_input_or_dropout_refused(self, shape, kwargs, error, message):
        net = Network.build(mlp_spec([6, 4], T=5), seed=0)
        with pytest.raises(error, match=message):
            run_forward(net, np.zeros(shape), **kwargs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        net = Network.build(mlp_spec([6, 4], T=5), seed=0)
        x = np.zeros((5, 2, 6))
        x[3, 1, 2] = bad
        with pytest.raises(GraphError, match="non-finite"):
            run_forward(net, x)

    def test_spike_stats_accumulate(self):
        spec = mlp_spec([6, 8, 8, 4], T=5)
        net = Network.build(spec, seed=3)
        x = np.ones((5, 2, 6))
        out = run_forward(net, x)
        rates = out.stats.rates()
        assert set(rates) == {1, 2}  # spiking hidden layers; the readout emits none
        assert all(0.0 <= r <= 5.0 for r in rates.values())


# Graphs that cover every path of a tape-free pass: one chunk, several chunks
# of a backward edge, one-step chunks through ``LifState`` for a blend over a
# backward edge, an accumulator readout fed by a concat edge, and conv layers;
# with a relu layer and BNTT in eval mode along the way.
FLOAT32_GRAPHS = {
    "forward_dense": (ArchSpec(
        input_shape=(6,), layers=(LayerSpec("dense", 8), LayerSpec("dense", 7, activation="relu"),
                                  LayerSpec("dense", 4, activation="li")),
        tskips=(TSkip(0, 2, 2, merge="add"),), T=6), 6),
    "backward_chunks": (mlp_spec([6, 8, 8, 4], T=8, tskips=[TSkip(3, 1, 3, merge="add")],
                                 bntt=True), 3),
    "backward_blend": (mlp_spec([6, 8, 8, 4], T=6,
                                tskips=[TSkip(2, 1, 2, merge="concat", alpha=True,
                                              alpha_init=0.3)], reset="hard"), 1),
    "li_concat": (mlp_spec([6, 8, 8, 4], T=6, tskips=[TSkip(1, 3, 2, merge="concat")]), 6),
    "conv": (from_shorthand("2x6x6-3c4s1-3c3s2-3", T=4, tskips=[TSkip(1, 2, 1)], bntt=True,
                            reset="hard"), 4),
}


def float32_fixture(name, batch=3):
    spec, steps = FLOAT32_GRAPHS[name]
    assert graph._chunk_steps(spec) == steps
    x = (np.random.default_rng(8).random((spec.T, batch) + spec.input_shape) < 0.5)
    return Network.build(spec, seed=4), x.astype(np.float64)


class TestFloat32Pass:
    @pytest.mark.parametrize("name", sorted(FLOAT32_GRAPHS))
    def test_every_array_of_the_pass_stays_float32(self, name, monkeypatch):
        # every tensor the pass makes, zeros and carried state included, is
        # float32, so nothing is widened back to float64 on the way
        net, x = float32_fixture(name)
        made = set()
        init = Tensor.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.add(self.data.dtype)

        monkeypatch.setattr(Tensor, "__init__", spy)
        collect = dict.fromkeys(range(net.spec.depth + 1))
        out = run_forward(net.float32(), x, collect=collect)
        assert made == {np.dtype(np.float32)}
        assert out.outputs.data.dtype == np.float32
        assert {a.dtype for a in collect.values()} == {np.dtype(np.float32)}
        assert all(p.data.dtype == np.float64 for p in net.params.values())

    @pytest.mark.parametrize("name", sorted(FLOAT32_GRAPHS))
    def test_spike_counts_match_float64(self, name):
        net, x = float32_fixture(name)
        lo = run_forward(net.float32(), x).stats.counts
        hi = run_forward(net, x).stats.counts
        assert lo.keys() == hi.keys()
        for l in hi:
            assert lo[l].dtype == np.float64 and np.array_equal(lo[l], hi[l])

    def test_float32_refused_under_a_tape(self):
        net, x = float32_fixture("forward_dense")
        with Tape(), pytest.raises(GraphError, match="without a tape") as err:
            run_forward(net.float32(), x)
        assert "\n" not in str(err.value)

    def test_float32_refused_in_train_mode(self):
        # BNTT would update the float32 copies of its running statistics
        net, x = float32_fixture("backward_chunks")
        net32 = net.float32()
        with pytest.raises(GraphError, match="eval mode") as err:
            run_forward(net32, x, mode="train")
        assert "\n" not in str(err.value)
        mean = net32.state["L1.bntt_mean"]
        assert mean.dtype == np.float32 and not mean.any()

    def test_value_beyond_float32_range_refused(self):
        net, x = float32_fixture("forward_dense")
        x[2, 1, 3] = 1e39
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GraphError, match=r"non-finite values in float32.*3\.4028") as err:
                run_forward(net.float32(), x)
            assert "\n" not in str(err.value)
            run_forward(net, x)  # finite in float64

    @pytest.mark.parametrize("source", [bool, np.int8, np.int64, np.uint64])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_cast_of_bool_or_int_input_skips_the_scan(self, monkeypatch, source, dtype):
        # such a source holds no value that is not finite in float32
        x = np.random.default_rng(2).integers(0, 2, (3, 5, 4)).astype(source).transpose(1, 0, 2)

        def refuse(*args, **kwargs):
            raise AssertionError("np.isfinite called")

        monkeypatch.setattr(np, "isfinite", refuse)
        cast = graph.cast_input(x, dtype)
        assert cast.dtype == dtype and cast.flags.c_contiguous
        assert np.array_equal(cast, x)

    @pytest.mark.parametrize("dtype, value, message", [
        (np.float64, np.nan, r"^input holds non-finite values$"),
        (np.float32, 1e39, r"^input holds non-finite values in float32, whose range is "
                           r"±3\.402823e\+38$"),
    ])
    def test_cast_of_float_input_keeps_the_scan(self, dtype, value, message):
        x = np.zeros((5, 3, 4))
        x[4, 2, 1] = value
        with pytest.raises(GraphError, match=message):
            graph.cast_input(x.transpose(1, 0, 2), dtype)
        assert graph.cast_input(x[:4].transpose(1, 0, 2), dtype).flags.c_contiguous

    def test_float32_input_to_a_taped_float64_step_is_bit_identical(self):
        # the float64 pass widens a float32 x once; loss and every gradient
        # equal those of the same x cast to float64 by the caller
        spec, _ = FLOAT32_GRAPHS["backward_chunks"]
        x32 = np.random.default_rng(9).normal(0.5, 1.0, (spec.T, 3, 6)).astype(np.float32)
        target = Tensor(np.random.default_rng(10).normal(size=(3, 4)))
        results = []
        for x in (x32, x32.astype(np.float64)):
            net = Network.build(spec, seed=4)
            with Tape() as tape:
                out = run_forward(net, x, mode="train", surr=SURR)
                loss = mse(readout_logits(out.outputs), target)
            grads = tape.backward(loss)
            results.append((loss.data, [grads[p] for p in net.params.values()]))
        (loss_a, grads_a), (loss_b, grads_b) = results
        assert loss_a.tobytes() == loss_b.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(grads_a, grads_b))


class TestSerialization:
    def test_round_trip_identity(self):
        spec = mlp_spec([700, 124, 288, 144, 20], T=99,
                        tskips=[TSkip(0, 2, 16, merge="concat"),
                                TSkip(4, 1, 14, merge="add", alpha=True, alpha_init=0.3)],
                        bntt=True, reset="hard", leak_init=0.5, threshold_init=2.0)
        assert loads_spec(dumps_spec(spec)) == spec

    def test_conv_shorthand_token(self):
        layer = parse_layer_token("3c80s1")
        assert (layer.kind, layer.kernel, layer.out, layer.stride) == ("conv2d", 3, 80, 1)

    def test_shorthand_accepted_in_layer_list(self):
        spec = spec_from_dict({"T": 4, "input": [2, 8, 8],
                               "layers": ["3c4s1", 10, {"kind": "dense", "out": 5,
                                                        "activation": "li"}]})
        assert spec.layers[0].kind == "conv2d"
        assert spec.layers[1] == LayerSpec("dense", 10)
        assert spec.layers[2].activation == "li"

    def test_full_shorthand_network(self):
        spec = from_shorthand("2x64x64-3c80s1-3c80s1-5c86s1-1c32s11", T=30)
        assert spec.input_shape == (2, 64, 64)
        assert spec.layers[0].out == 80
        assert spec.layers[-1].activation == "li"

    @pytest.mark.parametrize("edit", [
        lambda d: d.update(T=2.5),
        lambda d: d.update(T=5.0),
        lambda d: d.update(T=True),
        lambda d: d.update(T="5"),
        lambda d: d.update(bntt="false"),
        lambda d: d.update(bntt=0),
        lambda d: d.update(input=[10.0]),
        lambda d: d.update(leak_init=True),
        lambda d: d["layers"][0].update(out=8.0),
        lambda d: d["layers"][0].update(out=False),
        lambda d: d.update(layers=[True, 4]),
        lambda d: d["tskips"][0].update(origin=1.5),
        lambda d: d["tskips"][0].update(dest="2"),
        lambda d: d["tskips"][0].update(delta_t=True),
        lambda d: d["tskips"][0].update(alpha=1),
        lambda d: d["tskips"][0].update(alpha_init="0.3"),
    ], ids=["T fraction", "T float", "T bool", "T string", "bntt string", "bntt int",
            "input float", "leak_init bool", "out float", "out bool", "layer entry bool",
            "origin fraction", "dest string", "delta_t bool", "alpha int",
            "alpha_init string"])
    def test_mistyped_field_rejected(self, edit):
        d = spec_to_dict(mlp_spec([10, 8, 4], T=5, tskips=[TSkip(1, 2, 3)]))
        edit(d)
        with pytest.raises(GraphError):
            spec_from_dict(d)

    def test_conv_fields_are_integers(self):
        d = spec_to_dict(from_shorthand("2x8x8-3c4s1-5", T=3))
        assert spec_from_dict(d) == from_shorthand("2x8x8-3c4s1-5", T=3)
        d["layers"][0]["stride"] = 1.0
        with pytest.raises(GraphError, match="layer stride"):
            spec_from_dict(d)

    def test_canonical_dict_round_trip(self):
        spec = mlp_spec([10, 8, 4], T=5, tskips=[TSkip(1, 2, 3)])
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_bad_token_rejected(self):
        with pytest.raises(GraphError):
            parse_layer_token("3q80s1")
