"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks that span self time subtracts child coverage (nested and overlapping
children included), that the tracer restores every binding it replaced, that
traced and untraced runs give bit-identical outputs, that the reference
check rejects a wrong reference, and that ``BENCHMARK.json`` names exactly
the metrics the runs print. Exits 1 if any check fails.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
from dataclasses import replace

from run import BENCH, ROOT, import_program


def check_self_times() -> list[str]:
    from tracing import self_times

    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.inner", 2.0, 3.0, 1, 0],
        ["a.inner.leaf", 2.25, 2.5, 2, 0],
        ["b", 5.0, 8.0, 0, 0],
        ["b.overlap", 7.0, 12.0, 0, 0],  # overlaps b and runs past its parent
        ["c", 20.0, 21.0, -1, 1],
    ]
    want = [10.0 - 3.0 - 5.0, 3.0 - 1.0, 1.0 - 0.25, 0.25, 3.0, 5.0, 1.0]
    got = self_times(spans)
    return [f"self time of {s[0]}: got {g}, want {w}"
            for s, g, w in zip(spans, got, want) if abs(g - w) > 1e-12]


def small_jobs(workdir):
    """Tiny versions of the three workloads; each returns its outputs."""
    from tempospike.data import Dataset, gen_delayed_recall
    from workloads import ConvBackedgeTrain, RecallTrain, ShdSearch

    recall = RecallTrain(3, workdir)
    ds = gen_delayed_recall(16, 99, 12, seed=3)
    recall_data = (Dataset(ds.inputs[:8], ds.labels[:8]), Dataset(ds.inputs[8:], ds.labels[8:]))

    conv = ConvBackedgeTrain(3, workdir)
    manifests = conv.write(workdir / "conv", 6, 4, seed=3)
    conv_data = tuple(conv.read(m) for m in manifests)

    search = ShdSearch(3, workdir)
    space, probe = search.read(search.write_probe(workdir / "probe", 3))

    # small batches, so a second step sees the first step's gradients
    def run(tracer=None):
        return (
            recall.run_once(*recall_data, replace(recall.config(3), batch_size=4), tracer).outputs,
            conv.run_once(*conv_data, replace(conv.config(3), batch_size=3), tracer).outputs,
            search.search(space, probe[:, :4], 3, 2, master_seed=3, tracer=tracer).outputs,
        )

    return run


def check_tracer(workdir) -> list[str]:
    from tracing import Tracer, snapshot

    run = small_jobs(workdir)
    problems = []
    plain = run()
    before = snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        installed = snapshot()
        traced = run()
    finally:
        tracer.restore()
    after = snapshot()
    if installed == before:
        problems.append("install replaced no binding")
    changed = sorted(key for key in before if after.get(key) != before[key])
    if changed or after.keys() != before.keys():
        problems.append(f"bindings not restored: {changed[:5]}")
    if traced != plain:
        problems.append("traced outputs differ from untraced outputs")
    if not any(span[0] == "engine.bwd.affine" for span in tracer.spans):
        problems.append("no backward spans were recorded")
    if run() != plain:
        problems.append("outputs after restore differ from the first run")
    return problems


def check_reference_rejects() -> list[str]:
    from workloads import check_reference

    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    problems = []
    for name, ref in reference.items():
        values = {k: v for k, v in ref.items() if k not in ("tolerance", "seed")}
        if check_reference(name, values, reference):
            problems.append(f"{name}: the reference does not match itself")
        wrong = copy.deepcopy(reference)
        if name == "shd_search":
            wrong[name]["top"][0][1] += 2 * ref["tolerance"]["score"] + 1.0
        else:
            wrong[name]["train_loss"] += 2 * ref["tolerance"]["train_loss"] + 1.0
        if not check_reference(name, values, wrong):
            problems.append(f"{name}: a wrong reference was accepted")
    return problems


def check_benchmark_file() -> list[str]:
    from metrics import END_TO_END, PER_LAYER

    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for section, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in doc[section]}
        if listed != table:
            problems.append(f"BENCHMARK.json {section} differs from metrics.py")
    return problems


def main() -> int:
    import_program()
    workdir = ROOT / ".perfbench" / f"selftest-{os.getpid()}"
    try:
        results = {
            "self time subtracts child coverage": check_self_times(),
            "tracer restores bindings; traced == untraced": check_tracer(workdir),
            "reference check rejects a wrong reference": check_reference_rejects(),
            "BENCHMARK.json lists the metrics the runs print": check_benchmark_file(),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = 0
    for name, problems in results.items():
        print(f"{'FAIL' if problems else 'ok  '} {name}")
        for problem in problems:
            print(f"     {problem}")
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
