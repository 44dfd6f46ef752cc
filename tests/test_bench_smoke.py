"""Smoke test of the benchmark harness.

Runs ``bench/selfcheck.py``, which drives one tiny round of every
workload, untraced and traced, and checks every output against the
benchmark's oracles.  It checks outputs only, never timings, and takes a
few seconds.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selfcheck.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
