"""exogait benchmark: one closed-loop client driving ``exogait.cli.run``.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (fixtures are generated from the seed; sizes are fixed):

* ``session_csv``: a lab session of 8 trials (NoExo, ExoOff), each 1200
  frames of 20 markers at 100 Hz with angle/moment analogs and an events
  sidecar CSV. Each trial gets ``inspect`` then ``analyze``; the session
  ends with one ``compare`` over the strides CSVs written. One trial per
  condition has a gap longer than ``--max-gap`` in the analysed marker,
  which makes ``analyze`` exit 2 today; those operations are counted as
  failed. CSV parsing dominates.
* ``session_c3d``: the same trials as C3D files with embedded events,
  through the same commands; the binary reader replaces the text parser.
* ``pooled_compare``: ``compare`` over one pooled strides table of 100k
  rows from 200 trials, three features; stats and CLI row handling.
* ``closed_loop``: four ``simulate`` calls per pass (4 cycles each; with
  and without ``--jitter``, two writing ``--trace`` CSVs); simulator,
  phase and assist layers only.

The run has three parts. The fixtures are written to ``bench/out/``. Four
set-up probes, each a fresh process, time the import of exogait plus one
small warm-up operation. Then one worker process repeats the workload's
pass of operations for ``--seconds`` (see worker.py). The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. A fuller record of the run (seed,
machine, versions, thread caps, git revision, fixture sizes, latency
detail, errors) is written to ``bench/out/<workload>-seed<N>-trace<T>.json``
and, for traced runs, the spans beside it.

End-to-end metrics (untraced), all reported on every workload. Each pass
repeats the same operations. On a shared machine whose speed keeps
switching between a fast and a slow state, each operation's
90th-percentile latency over its repeats reproduces best from run to run,
so the throughput and median figures are built on it (see metrics.py):

* ``realtime_x``: seconds of gait taken through one pass per wall second:
  trial durations analysed (session_*), stride durations in the compared
  table (pooled_compare), or simulated seconds (closed_loop), over the sum
  of the pass's per-operation latencies, failed operations included.
* ``op_p50_ms``: median over the pass's operations of their latency.
* ``op_tail_ms``: the 95th percentile of every latency sample of the run;
  the record gives the sample count, the samples beyond it, and the
  highest percentile with ten samples beyond it.
* ``peak_rss_mb``: peak resident memory of the worker process.
* ``setup_s``: median over the probes and the worker of exogait's import
  plus the warm-up operation.

Per-layer metrics (traced) come from the slowest traced pass and are per
pass; ``frames_per_s``, ``rows_per_s`` and ``sim_realtime_x`` are the
workload-specific rates (zero on workloads without that work), and
``failed_ratio`` counts failed over attempted operations in every pass.

A failed operation is one that exits nonzero; it must print exactly one
``exogait: error:`` line. ``correct`` is false when any output check
fails, an operation fails that was not expected to, or a pass differs
from the first byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 4
TIME_LIMIT_S = 170  # the whole run, fixtures and probes included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("session_csv", "session_c3d", "pooled_compare", "closed_loop")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision():
    """HEAD's commit from .git files, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").split("\n"):
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "exogait").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _worker(plan_path, mode, deadline):
    result_path = plan_path.with_name(f"result-{mode}.json")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(plan_path),
         str(result_path), mode],
        cwd=ROOT, capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _problems(result):
    found = []
    ops = [result["warmup"]] + [op for p in result["passes"]
                                for op in p["ops"]]
    for op in ops:
        found += [f"{op['kind']}: {msg}" for msg in op["problems"]]
    if result["nondeterministic_passes"]:
        found.append("passes " + ", ".join(map(str, result[
            "nondeterministic_passes"])) + " differ from the first pass")
    return found


def main(argv=None, sizes=None) -> int:
    args = _parse(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (SRC / "exogait" / "__init__.py").is_file():
        print(f"bench: no exogait sources at {SRC}; run from the root of a "
              "full checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    caps = {var: str(nproc) for var in THREAD_VARS}
    os.environ.update(caps)
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import metrics
    import workloads

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        plan = workloads.build_plan(args.workload, args.seed, work,
                                    sizes or workloads.SIZES)
        plan.update(src=str(SRC), seconds=args.seconds,
                    trace=bool(args.trace),
                    spans_path=str(OUT / f"{stem}-spans.json"))
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        setups = [_worker(plan_path, "setup", deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        result = _worker(plan_path, "run", deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setups.append(result["setup_s"])
    every = [op for p in result["passes"] for op in p["ops"]]
    problems = _problems(result)
    if args.trace:
        figures = metrics.per_layer(result)
        declared = "per_layer"
    else:
        figures = metrics.end_to_end(result, setups)
        declared = "end_to_end"
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[declared]}
    line = {
        "correct": not problems,
        "attempted": len(every),
        "failed": sum(op["code"] != 0 for op in every),
        "metrics": {name: {"value": figures[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": {"nproc": nproc, "cpu_model": _cpu_model(),
                    "platform": platform.platform()},
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "thread_caps": caps,
        "git_revision": _git_revision(),
        "source_sha256": _source_sha256(),
        "fixture": plan["fixture"],
        "passes": len(result["passes"]),
        "traced_passes": sum(p["traced"] for p in result["passes"]),
        "errors": sorted({op["error"] for op in every if op["error"]}),
        "problems": problems[:50],
        "setup_samples_s": setups,
        "latency": metrics.latency_summary(result),
        "throughput": metrics.throughput(result),
        "layers_slowest_traced_pass": (metrics.slowest_traced_pass(result)
                                       ["layers"] if args.trace else None),
        **line,
    }
    record_path = OUT / f"{stem}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n",
                           encoding="utf-8")
    print(f"bench: record written to {record_path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
