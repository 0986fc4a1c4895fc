"""The benchmark harness under ``perfbench/`` against the code in ``src/``."""

import subprocess
import sys
from pathlib import Path

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
