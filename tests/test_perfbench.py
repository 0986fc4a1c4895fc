"""The benchmark harness under ``perfbench/`` against the code in ``src/``."""

import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    # among its checks: traced and untraced runs agree bit for bit, and the
    # workloads find every function they call; it writes under .perfbench/ only
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_benchmark_output_checks_pass():
    # every workload in a fresh process: its reference check plus two jobs;
    # a change that moves a reference value fails here
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--seconds", "0", "--seed", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]


def test_traced_node_counts_cover_every_taped_op(monkeypatch):
    # the engine.nodes.* per-layer metrics: the tracer's record wrapper tags
    # each backward closure with its op kind, and its count_nodes hook on
    # Tape.backward reads that tag from tape.nodes[i].backward; on one taped
    # conv back-edge step it must see one node of the right kind per taped op
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracing import Tracer

    from tempospike.engine import Tape, active_tape, cross_entropy, ops, tensor
    from tempospike.graph import Network, TSkip, from_shorthand, run_forward
    from tempospike.trainer import readout_logits

    spec = from_shorthand("2x6x6-3c4s2-3c6s1-3c6s1-3", T=4,
                          tskips=[TSkip(origin=3, dest=2, delta_t=2)], bntt=True, reset="hard")
    net = Network.build(spec, seed=0)
    rng = np.random.default_rng(3)
    x = (rng.random((4, 4, 2, 6, 6)) < 0.3).astype(np.float64)
    taped = Counter()
    tracer = Tracer()
    tracer.install()
    try:
        traced_record = tensor.record

        def record(inputs, out_data, backward_fn):
            out = traced_record(inputs, out_data, backward_fn)
            if active_tape() is not None and out.requires_grad:
                taped[backward_fn.__qualname__.split(".", 1)[0]] += 1
            return out

        for mod in (tensor, ops):
            monkeypatch.setattr(mod, "record", record)
        with Tape() as tape:
            result = run_forward(net, x, mode="train", dropout=0.2, rng=rng)
            loss = cross_entropy(readout_logits(result.outputs), [0, 2, 1, 1])
        tape.backward(loss)
    finally:
        monkeypatch.undo()
        tracer.restore()
    counted = {key.removeprefix("engine.nodes."): n for key, n in tracer.counts.items()
               if key.startswith("engine.nodes.")}
    assert {"conv2d", "bntt_seq", "dropout", "select_channels", "concat"} <= set(counted)
    assert counted == dict(taped)
    assert sum(counted.values()) == len(tape.nodes)


def test_workloads_read_boolean_inputs(tmp_path, monkeypatch):
    # the benchmark's datasets and probe reach the program as the loaders
    # build them, one byte per value
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import RecallTrain, ShdSearch, load_visual_set, write_visual_set

    visual = load_visual_set(write_visual_set(tmp_path / "visual", 4, 1, T=5, window_us=500,
                                              events=20))
    recall_work = RecallTrain(1, tmp_path)
    recall = recall_work.read(recall_work.write(tmp_path / "recall", 4, 2, 1)[0])
    _, probe = ShdSearch.read(ShdSearch(1, tmp_path).write_probe(tmp_path / "probe", 1))
    assert visual.inputs.dtype == recall.inputs.dtype == probe.dtype == bool
    assert visual.inputs.shape == (4, 5, 2, 16, 16) and visual.inputs.any()
    assert recall.inputs.shape == (4, 99, 11) and probe.shape[1] == ShdSearch.probe_batch


def test_search_metrics_find_the_functions_they_read(monkeypatch):
    # perfbench reads nas.kernel_ms, nas.build_ms and nas.forward_ms from the
    # spans of nas.sahd_kernel, graph.Network.build and graph.run_forward
    # under nas.sahd_score, and counts draws under nas.sample; a rename or a
    # new call path would leave a metric reading 0
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from metrics import SpanTotals, per_layer
    from tracing import Tracer

    from tempospike import nas

    space = nas.SearchSpace(input_shape=(8,), out_units=3, T=5, depth_range=(2, 3),
                            width_range=(4, 8), delta_t_range=(1, 3))
    probe = np.random.default_rng(5).random((5, 4, 8)) < 0.3
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.search"):
            nas.random_search(space, 3, probe, 1, master_seed=2)
    finally:
        tracer.restore()
    spans = tracer.take()
    totals = SpanTotals()
    totals.add(spans)
    names = Counter(name for name, *_ in spans)
    assert names["nas.sample"] == names["nas.sahd_score"] == names["nas.sahd_kernel"] == 3
    for name in ("graph.Network.build", "graph.run_forward.eval"):
        assert totals.under[("bench.search", "nas.sahd_score", name)][0] == 3
    m = per_layer(totals, tracer.counts, tracer.samples, "candidate", 3, 0, 0.0)
    assert all(m[key] > 0 for key in ("nas.kernel_ms", "nas.build_ms", "nas.forward_ms"))
