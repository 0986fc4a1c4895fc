"""tempospike benchmark: closed-loop training and search workloads.

    python3 perfbench/run.py --workload recall_train --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 36    # every workload, one fresh process each

A run loads its generated inputs several times (set-up), checks one
fixed-seed run against ``reference.json``, then repeats jobs for
``--seconds``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced jobs and reports the per-layer metrics and
the tracing overhead. The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
BLAS_THREADS = 1
SETUP_REPEATS = 9
MIN_JOBS = 2

# One BLAS thread: at or below nproc on any machine, and the same reduction
# order everywhere, so reference values and bit-identity checks travel.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


class BenchError(Exception):
    """The benchmark cannot run here."""


def import_program():
    """Import tempospike from this checkout's ``src``, never from elsewhere."""
    src = (ROOT / "src").resolve()
    if not (src / "tempospike" / "__init__.py").is_file():
        raise BenchError(f"no tempospike sources under {src}")
    sys.path.insert(0, str(src))
    import tempospike

    if Path(tempospike.__file__).resolve().parent.parent != src:
        raise BenchError(f"tempospike imported from {tempospike.__file__}, not {src}")
    return tempospike


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():  # else git would answer for an enclosing repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def median(values):
    import numpy as np

    return float(np.median(values)) if len(values) else 0.0


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    from metrics import ALIASES, END_TO_END, PER_LAYER, UNITS, SpanTotals, per_layer
    from tracing import Tracer
    from workloads import WORKLOADS, check_reference

    workdir = ROOT / ".perfbench" / f"{name}-{seed}-{os.getpid()}"
    failures: list[str] = []
    attempted = 0
    try:
        work = WORKLOADS[name](seed, workdir)
        work.write_inputs()
        setup_times = []

        def set_up():
            start = time.perf_counter()
            loaded = work.load()
            setup_times.append(time.perf_counter() - start)
            return loaded

        loaded = set_up()

        # the reference run also warms the process up before timing starts
        attempted += 1
        failures += check_reference(name, work.reference_values(), reference)

        tracer = Tracer() if trace else None
        totals = SpanTotals()
        if trace:
            tracer.install()
            try:
                with tracer.span("bench.load"):
                    traced_loaded = work.load()
            finally:
                tracer.restore()
            totals.add(tracer.take())

        jobs = {False: [], True: []}
        expected = None
        index = 0
        start = time.perf_counter()
        job_seconds = 0.0
        # no job starts that would end past --seconds if it took as long as
        # the one before it
        while index < MIN_JOBS or time.perf_counter() - start + job_seconds < seconds:
            job_start = time.perf_counter()
            # set-ups are spread over the run, so they see the same machine
            # load as the jobs do
            if time.perf_counter() - start >= len(setup_times) * seconds / SETUP_REPEATS:
                set_up()
            traced = trace and index % 2 == 1
            attempted += 1
            index += 1
            if traced:
                tracer.install()
            try:
                result = work.job(tracer if traced else None)
            except Exception:  # a failed job is counted, and the loop goes on
                failures.append(traceback.format_exc())
                continue
            finally:
                if traced:
                    tracer.restore()
                    totals.add(tracer.take())
                job_seconds = time.perf_counter() - job_start
            # every job repeats the same inputs and seeds
            if expected is None:
                expected = result.outputs
            elif result.outputs != expected:
                failures.append(f"job {index - 1}{' (traced)' if traced else ''} outputs "
                                "differ from the first job's")
            jobs[traced].append(result)
        while len(setup_times) < SETUP_REPEATS:
            set_up()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    plain = jobs[False]
    items_ms = [s * 1e3 for job in plain for s in job.item_seconds]
    e2e = {
        "setup_s": median(setup_times),
        "items_per_s": median([job.items_per_second for job in plain]),
        "item_ms_p50": median(items_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    shown = dict(e2e, item_ms_p90=percentile(items_ms, 90),
                 load_samples_per_s=loaded / median(setup_times),
                 eval_samples_per_s=median([n / sec for job in plain for n, sec in job.eval_calls]))
    aliases = ALIASES[work.item]
    print(f"# {name} seed={seed} jobs={len(plain)} {work.item}s={len(items_ms)} "
          f"setups={len(setup_times)} traced_jobs={len(jobs[True])} "
          f"setup_s={[round(t, 3) for t in setup_times]}")
    for key, value in shown.items():
        print(f"{name:<20} {aliases.get(key, key):<22} {value:14.4f} {UNITS[key]}")
    error_rate = len(failures) / attempted
    print(f"{name:<20} {'error_rate':<22} {error_rate:14.4f} ratio "
          f"({len(failures)} failed of {attempted} checked outputs)")
    for problem in failures:
        print(f"# failed: {problem}", file=sys.stderr)

    if trace:
        traced_ms = [s * 1e3 for job in jobs[True] for s in job.item_seconds]
        overhead = median(traced_ms) - e2e["item_ms_p50"]
        metrics = per_layer(totals, tracer.counts, tracer.samples, work.item,
                            len(traced_ms), traced_loaded, overhead)
        for key, value in metrics.items():
            print(f"{name:<20} {key:<34} {value:14.4f} {PER_LAYER[key]}")
        units = PER_LAYER
    else:
        metrics, units = e2e, END_TO_END
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own fresh process, then one summary."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--reference", str(args.reference)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload; omit to run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, default=BENCH / "reference.json",
                        help="committed reference values the output checks compare against")
    args = parser.parse_args(argv)
    try:
        import_program()
        reference = json.loads(args.reference.read_text(encoding="utf-8"))
    except (BenchError, ImportError, OSError, ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload is None:
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    print("# env " + json.dumps(environment(), sort_keys=True))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
