import itertools
import math

import numpy as np
import pytest
import scipy.stats

from tempospike import graph, nas
from tempospike.graph import ArchSpec, LayerSpec, param_count, validate
from tempospike.nas import (
    KERNEL_EPS,
    SearchError,
    SearchSpace,
    count_tskip_space,
    kendall_tau,
    preset_space,
    random_search,
    sahd_kernel,
    sahd_score,
    sample,
)


def tiny_space(**overrides) -> SearchSpace:
    cfg = dict(input_shape=(8,), out_units=4, T=6, depth_range=(2, 3),
               width_range=(4, 10), tskip_count_range=(1, 2), delta_t_range=(1, 4),
               param_budget=2000)
    cfg.update(overrides)
    return SearchSpace(**cfg)


def probe_batch(space: SearchSpace, b: int = 8, seed: int = 0, rate: float = 0.3):
    rng = np.random.default_rng(seed)
    return (rng.random((space.T, b) + space.input_shape) < rate).astype(np.float64)


class TestSample:
    def test_single_admissible_config(self):
        space = tiny_space(depth_range=(2, 2), width_range=(5, 5),
                           tskip_count_range=(0, 0), param_budget=None)
        rng = np.random.default_rng(0)
        specs = {sample(space, rng).layers for _ in range(5)}
        assert len(specs) == 1

    def test_property_sweep(self):
        space = tiny_space()
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            spec = sample(space, rng)
            assert validate(spec) == []
            assert param_count(spec) <= space.param_budget
            for e in spec.tskips:
                assert 1 <= e.delta_t <= 4

    def test_fixed_seed_reproducible(self):
        space = tiny_space()
        a = [sample(space, np.random.default_rng(3)) for _ in range(10)]
        b = [sample(space, np.random.default_rng(3)) for _ in range(10)]
        assert a == b

    def test_infeasible_budget_errors(self):
        space = tiny_space(width_range=(64, 128), param_budget=10)
        with pytest.raises(SearchError, match="budget"):
            sample(space, np.random.default_rng(0), max_attempts=50)

    def test_delta_range_checked_against_T(self):
        with pytest.raises(SearchError):
            tiny_space(delta_t_range=(1, 6))  # T=6 allows at most 5

    @pytest.mark.parametrize("field, value", [
        ("depth_range", (5, 3)), ("width_range", (64, 32)), ("depth_range", (3,)),
        ("tskip_count_range", (-1, 1)), ("delta_t_range", (1.5, 2)),
        ("merge_choices", ()), ("merge_choices", ("sum",)), ("kernel_choices", ()),
        ("stride_choices", (0,)), ("input_shape", 700), ("input_shape", (8, 0)),
        ("T", 99.5), ("T", True), ("kind", "foo"), ("out_units", 0), ("reset", "none"),
        ("alpha", "yes"),
    ])
    def test_malformed_field_is_named(self, field, value):
        # each is refused when the space is built, not after 1000 draws
        with pytest.raises(SearchError, match="^" + field.replace("_range", "")):
            tiny_space(**{field: value})

    def test_conv_space_needs_a_map_input(self):
        with pytest.raises(SearchError, match="^input_shape"):
            tiny_space(kind="conv2d")

    @pytest.mark.parametrize("field, value", [
        ("param_budget", math.nan), ("param_budget", math.inf), ("param_budget", 0),
        ("param_budget", True),
        ("leak_init", math.nan), ("leak_init", 1.5),
        ("threshold_init", math.nan), ("threshold_init", 0.005),
    ])
    def test_space_fields_checked(self, field, value):
        with pytest.raises(SearchError, match=field):
            tiny_space(**{field: value})


class TestPresets:
    @pytest.mark.parametrize("name,dt,budget", [
        ("flow", (2, 6), None),
        ("dvs", (5, 14), 600_000),
        ("shd", (10, 45), 300_000),
        ("ssc", (10, 45), 300_000),
    ])
    def test_constraint_tables(self, name, dt, budget):
        space = preset_space(name)
        assert space.delta_t_range == dt
        assert space.param_budget == budget

    def test_sampled_specs_respect_shd_constraints(self):
        space = preset_space("shd")
        rng = np.random.default_rng(5)
        for _ in range(25):
            spec = sample(space, rng)
            assert validate(spec) == []
            assert param_count(spec) <= 300_000
            for e in spec.tskips:
                assert 10 <= e.delta_t <= 45

    def test_flow_search_samples_conv_stacks_and_ranks_repeatably(self):
        # the flow preset, reduced in T, widths and probe: its draws take the
        # conv branch, kernel and stride included
        space = preset_space("flow", T=5, width_range=(2, 6), delta_t_range=(2, 4))
        rng = np.random.default_rng(6)
        specs = [sample(space, rng) for _ in range(200)]
        for spec in specs:
            assert validate(spec) == []
            assert (spec.input_shape, spec.T, spec.reset) == ((2, 16, 16), 5, "hard")
            assert all(l.kind == "conv2d" and l.activation == "lif"
                       and l.kernel in space.kernel_choices and l.stride in space.stride_choices
                       for l in spec.layers[:-1])
            assert spec.layers[-1] == LayerSpec("dense", 2, activation="li")
        drawn = {(l.kernel, l.stride) for spec in specs for l in spec.layers[:-1]}
        assert drawn == {(k, s) for k in space.kernel_choices for s in space.stride_choices}

        probes = probe_batch(space, b=4, seed=2, rate=0.1)

        def ranking(parallel):
            return [(c.score, c.seed, c.spec)
                    for c in random_search(space, 6, probes, 6, master_seed=9, parallel=parallel)]

        serial = ranking(None)
        assert len({score for score, _, _ in serial}) == 6  # an order to repeat
        assert ranking(None) == serial
        assert ranking(2) == serial

    def test_unknown_preset(self):
        with pytest.raises(SearchError):
            preset_space("imagenet")


class TestSahdKernel:
    def test_identical_probes_rank_one_minimal(self):
        space = tiny_space(tskip_count_range=(0, 0))
        spec = sample(space, np.random.default_rng(7))
        one = probe_batch(space, b=1, seed=2)
        probes = np.repeat(one, 8, axis=1)
        cand = sahd_score(spec, probes, seed=0)
        floor = (8 - 1) * math.log(KERNEL_EPS)
        assert floor - 1.0 <= cand.score <= floor + math.log(8 * 4) + 2.0

    def test_probe_permutation_invariance(self):
        space = tiny_space()
        spec = sample(space, np.random.default_rng(11))
        probes = probe_batch(space, b=8, seed=3)
        base = sahd_score(spec, probes, seed=1).score
        perm = np.random.default_rng(4).permutation(8)
        assert sahd_score(spec, probes[:, perm], seed=1).score == pytest.approx(base, abs=1e-8)

    def test_random_bits_beat_constant_bits(self):
        rng = np.random.default_rng(9)
        random_train = (rng.random((8, 300)) < 0.5).astype(float)
        constant_train = np.tile(random_train[:1], (8, 1))
        k_rand, _ = sahd_kernel([random_train])
        k_const, _ = sahd_kernel([constant_train])
        ld = lambda k: np.linalg.slogdet(k + KERNEL_EPS * np.eye(8))[1]
        assert ld(k_rand) > ld(k_const)

    def test_kernel_psd(self):
        rng = np.random.default_rng(13)
        trains = [(rng.random((6, 50)) < 0.3).astype(float) for _ in range(3)]
        kernel, degenerate = sahd_kernel(trains)
        assert not degenerate
        assert np.allclose(kernel, kernel.T)
        assert np.linalg.eigvalsh(kernel).min() >= -1e-8

    def test_silent_network_flagged_degenerate(self):
        spec = ArchSpec(input_shape=(8,),
                        layers=(LayerSpec("dense", 6),
                                LayerSpec("dense", 4, activation="li")),
                        T=6, threshold_init=1e6)  # threshold no input can reach
        probes = probe_batch(tiny_space(), b=4, seed=1)
        cand = sahd_score(spec, probes, seed=0)
        assert cand.degenerate
        assert cand.score == pytest.approx(4 * math.log(KERNEL_EPS), rel=1e-6)

    def test_needs_two_probes(self):
        space = tiny_space()
        spec = sample(space, np.random.default_rng(1))
        with pytest.raises(SearchError, match="2 samples"):
            sahd_score(spec, probe_batch(space, b=1), seed=0)


class TestRandomSearch:
    def test_n_equals_k_returns_all_sorted(self):
        space = tiny_space()
        probes = probe_batch(space)
        out = random_search(space, 5, probes, 5, master_seed=0)
        assert len(out) == 5
        assert all(a.score >= b.score for a, b in zip(out, out[1:]))

    def test_serial_equals_parallel(self):
        space = tiny_space()
        probes = probe_batch(space)
        serial = random_search(space, 10, probes, 4, master_seed=7, parallel=None)
        par = random_search(space, 10, probes, 4, master_seed=7, parallel=4)
        assert [(c.score, c.spec) for c in serial] == [(c.score, c.spec) for c in par]

    @pytest.mark.parametrize("parallel, n, cores, workers", [
        (5000, 3, 8, 3), (5000, 10, 2, 2), (4, 10, 8, 4), (4, 10, None, None), (1, 10, 8, None)])
    def test_thread_count_is_bounded(self, monkeypatch, parallel, n, cores, workers):
        # a fake pool records the thread count asked for and scores in this
        # thread, so no thread is started
        asked = []

        class Pool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(nas, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(nas.os, "cpu_count", lambda: cores)
        space = tiny_space()
        probes = probe_batch(space)
        serial = random_search(space, n, probes, 2, master_seed=3)
        assert asked == []
        par = random_search(space, n, probes, 2, master_seed=3, parallel=parallel)
        assert asked == ([] if workers is None else [workers])
        assert [(c.score, c.spec) for c in serial] == [(c.score, c.spec) for c in par]

    def test_k_larger_than_n_rejected(self):
        space = tiny_space()
        with pytest.raises(SearchError):
            random_search(space, 2, probe_batch(space), 5)

    @pytest.mark.parametrize("n, k", [(3, 0), (0, 0), (3, -1)])
    def test_k_below_one_rejected(self, n, k):
        space = tiny_space()
        with pytest.raises(SearchError, match="1 <= k"):
            random_search(space, n, probe_batch(space), k)

    def test_planted_candidate_recovered(self):
        # a wide, easily spiking architecture planted among narrow, mostly
        # silent candidates must surface near the top of the ranking
        space = tiny_space(width_range=(2, 3), threshold_init=4.0,
                           tskip_count_range=(0, 1), param_budget=None)
        planted = ArchSpec(input_shape=(8,),
                           layers=(LayerSpec("dense", 24), LayerSpec("dense", 24),
                                   LayerSpec("dense", 4, activation="li")),
                           T=6, threshold_init=0.6)
        probes = probe_batch(space, b=8, seed=0)
        hits = 0
        for trial in range(20):
            ranked = random_search(space, 6, probes, 6, master_seed=trial)
            planted_score = sahd_score(planted, probes, seed=trial).score
            better = sum(1 for c in ranked if c.score > planted_score)
            if better < 3:  # planted lands in the top 3 of 7
                hits += 1
        assert hits >= 19

    @pytest.mark.parametrize("budget", [None, 2000])
    def test_param_table_built_at_most_twice_per_accepted_candidate(self, monkeypatch, budget):
        # once when ``sample`` validates a draw and counts its parameters,
        # once when ``Network.build`` validates the accepted spec and
        # initializes them; a rejected draw builds it at most once
        calls = {"param_table": 0, "_draw_spec": 0}

        def counting(fn):
            def counted(*args):
                calls[fn.__name__] += 1
                return fn(*args)
            return counted

        monkeypatch.setattr(graph, "param_table", counting(graph.param_table))
        monkeypatch.setattr(nas, "_draw_spec", counting(nas._draw_spec))
        space = tiny_space(param_budget=budget)
        ranked = random_search(space, 6, probe_batch(space), 6, master_seed=3)
        draws, built = calls["_draw_spec"], calls["param_table"]
        assert len(ranked) == 6 and built <= draws + 6
        if budget is None:
            assert (draws, built) == (6, 12)


class TestFloat32Scores:
    """Candidates are scored on float32 forward passes; the scores and the
    ranking must agree with float64 ones."""

    @staticmethod
    def search(probe, dtype=None, monkeypatch=None):
        # a reduced ``shd`` preset: shorter window, fewer inputs, narrower layers
        space = preset_space("shd", T=30, input_shape=(120,), width_range=(16, 96),
                             delta_t_range=(3, 12), param_budget=60_000)
        if dtype is not None:
            monkeypatch.setattr(nas, "run_forward", lambda *args, **kwargs: graph.run_forward(
                *args, **{**kwargs, "dtype": dtype}))
        return random_search(space, 8, probe, 8, master_seed=2)

    @pytest.mark.parametrize("probe_seed", [0, 1, 2])
    def test_ranking_and_scores_agree_with_float64(self, probe_seed, monkeypatch):
        rng = np.random.default_rng(probe_seed)
        probe = (rng.random((30, 12, 120)) < 0.1).astype(np.float64)
        lo = self.search(probe)
        hi = self.search(probe, np.float64, monkeypatch)
        assert [c.spec for c in lo[:3]] == [c.spec for c in hi[:3]]
        scores = {c.seed: c.score for c in hi}
        assert all(abs(c.score - scores[c.seed]) <= 1e-2 for c in lo)

    def test_probe_cast_once_per_search(self, monkeypatch):
        seen = []

        def spy(net, x, **kwargs):
            seen.append((x, kwargs["dtype"]))
            return graph.run_forward(net, x, **kwargs)

        monkeypatch.setattr(nas, "run_forward", spy)
        space = tiny_space()
        random_search(space, 4, probe_batch(space), 2, master_seed=0)
        assert len(seen) == 4 and all(dtype == np.float32 for _, dtype in seen)
        assert all(x is seen[0][0] and x.dtype == np.float32 for x, _ in seen)

    def test_probe_beyond_float32_range_refused(self):
        space = tiny_space()
        probe = probe_batch(space)
        probe[1, 2, 3] = -1e39
        with pytest.raises(graph.GraphError, match="float32"):
            random_search(space, 2, probe, 1)


class TestKendallTau:
    def test_identical_rankings(self):
        assert kendall_tau([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_reversed_rankings(self):
        assert kendall_tau([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_single_swap_fixture(self):
        # pairs: 5 concordant, 1 discordant -> (5 - 1) / 6
        assert kendall_tau([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(4 / 6)

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            a = rng.integers(0, 6, size=12).astype(float)
            b = rng.integers(0, 6, size=12).astype(float)
            if len(set(a)) < 2 or len(set(b)) < 2:
                continue
            expected = scipy.stats.kendalltau(a, b, variant="b").statistic
            assert kendall_tau(a, b) == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kendall_tau([1, 2], [1, 2, 3])


class TestCountSpace:
    def test_two_nodes_one_delay(self):
        edge_slots, annotated, total = count_tskip_space(1, 1)
        assert (edge_slots, annotated, total) == (2, 2, 4)

    def test_exhaustive_enumeration_small(self):
        edge_slots, annotated, total = count_tskip_space(1, 8)
        assert annotated == 16
        slots = [(o, d, dt) for o in range(2) for d in range(2) if o != d
                 for dt in range(8)]
        assert len(slots) == annotated
        enumerated = sum(1 for r in range(annotated + 1)
                         for _ in itertools.combinations(slots, r))
        assert enumerated == total == 2 ** 16

    def test_three_layer_convention(self):
        # 3 layers plus the input node: 12 ordered pairs; with 10 delay values
        # the space holds 120 annotated slots and 2^120 configurations
        edge_slots, annotated, total = count_tskip_space(3, 10)
        assert edge_slots == 12
        assert annotated == 120
        assert total == 2 ** 120

    def test_rejects_degenerate_args(self):
        with pytest.raises(ValueError):
            count_tskip_space(0, 1)
        with pytest.raises(ValueError):
            count_tskip_space(2, 0)
