"""Smoke test of the benchmark: every workload at a tiny size, traced and untraced.

``bench/run.py --smoke`` checks that every metric it emits is named in
BENCHMARK.json (and only those), that each name matches ``[A-Za-z0-9_.-]+``,
and that the output checks pass.  It runs in a child process so that the
tracer's wrappers never touch the test process.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_smoke():
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
