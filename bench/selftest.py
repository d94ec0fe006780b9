"""Smoke test of the benchmark itself, at tiny fixture sizes.

Usage, from the root of a checkout: python3 bench/selftest.py

Runs every workload in BENCHMARK.json once untraced and once traced, and
asserts that each declared metric is printed with its declared unit and
that every output check passes (the long-gap trials of session_csv may
fail, as documented). It then runs the benchmark from a directory holding
only BENCHMARK.json and the benchmark's files, where it must fail without
printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402  (needs src/ on the path)


def _smoke(spec, workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds",
                         "1", "--trace", str(trace)], sizes=workloads.TINY)
    assert code == 0, f"{workload} trace={trace}: exit {code}"
    line = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line
    assert line["correct"], f"{workload} trace={trace}: output checks failed"
    assert line["attempted"] >= 1 and 0 <= line["failed"] <= line["attempted"]
    declared = spec["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in declared}, workload
    for m in declared:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (workload, m["name"], got)
        assert math.isfinite(got["value"]), (workload, m["name"], got)
        if not trace:
            assert got["value"] > 0, (workload, m["name"], got)
    print(f"ok  {workload} trace={trace}: {line['attempted']} operations, "
          f"{line['failed']} failed")


def _bare_checkout():
    """BENCHMARK.json and the benchmark alone must not produce a result."""
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "closed_loop",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "bare checkout exited 0"
    assert '"metrics"' not in proc.stdout, "bare checkout printed a result"
    print("ok  bare checkout fails without a result")


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    run.SETUP_PROBES = 1  # keeps the smoke run short
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            _smoke(spec, workload, trace)
    _bare_checkout()
    return 0


if __name__ == "__main__":
    sys.exit(main())
