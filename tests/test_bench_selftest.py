"""The benchmark's own smoke test, run as part of the test suite.

bench/selftest.py runs every workload of BENCHMARK.json at tiny fixture
sizes, traced and untraced, with every operation's output checks, so a
change that breaks a benchmark operation fails here. It writes only under
bench/out/.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
