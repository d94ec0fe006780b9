"""The measured process: imports exogait, runs one plan, writes raw results.

Usage: python3 worker.py PLAN_JSON RESULT_JSON {setup,run}

``setup`` times the import of exogait plus the plan's warm-up operation
and exits. ``run`` does the same, then repeats the plan's pass of
operations, one at a time, until the plan's run length has passed and at
least two passes are done. With tracing on, passes alternate untraced and
traced, so one run gives both the per-layer spans and the tracing
overhead. Outputs are checked after each operation, outside its timing,
and every pass must reproduce the first pass byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter

import checks

MIN_PASSES = 2


def _execute(cli, op, extra_inputs=()):
    """Run one operation; returns (exit code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    argv = [*op["argv"], *extra_inputs]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.run(argv)
        except Exception:  # an escaped traceback is a failed operation
            code = -1
            traceback.print_exc()
        seconds = perf_counter() - start
    return code, seconds, out.getvalue(), err.getvalue()


def _record(op, code, seconds, stdout, stderr):
    """Check one finished operation and summarize it for the result file."""
    problems, counts = checks.check(op, code, stdout, stderr)
    digest = hashlib.sha256(f"{code}\0{stdout}\0{stderr}".encode())
    written = len(stdout.encode())
    for path in op.get("outputs", ()):
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
            digest.update(data)
            written += len(data)
    return {
        "kind": op["kind"],
        "seconds": seconds,
        "code": code,
        "error": stderr.strip() if code != 0 else None,
        "problems": problems,
        "counts": counts,
        "work": op.get("work", {}) if code == 0 else {},
        "bytes_written": written,
        "digest": digest.hexdigest(),
    }


def _run_pass(cli, ops):
    records = []
    strides = []  # strides CSVs this pass's analyze operations wrote
    for op in ops:
        extra = strides if op.get("inputs_from_pass") else ()
        record = _record(op, *_execute(cli, op, extra))
        if op["kind"] == "analyze" and record["code"] == 0:
            strides.append(op["outputs"][0])
        records.append(record)
    return records


def _measure(cli, plan):
    tracer = None
    if plan["trace"]:
        from tracer import Tracer
        tracer = Tracer()
    passes = []
    deadline = perf_counter() + plan["seconds"]
    while len(passes) < MIN_PASSES or perf_counter() < deadline:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            first = len(tracer.spans)
            with tracer.installed():
                records = _run_pass(cli, plan["ops"])
            layers = tracer.summary(first)
        else:
            records, layers = _run_pass(cli, plan["ops"]), None
        passes.append({"traced": traced, "ops": records, "layers": layers})
    first = [r["digest"] for r in passes[0]["ops"]]
    repeats = [i for i, p in enumerate(passes[1:], start=1)
               if [r["digest"] for r in p["ops"]] != first]
    result = {"passes": passes, "nondeterministic_passes": repeats}
    if tracer is not None:
        tracer.write(plan["spans_path"])
    return result


def main(argv: list[str]) -> int:
    plan_path, result_path, mode = argv
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    start = perf_counter()
    from exogait import cli
    warmup = _record(plan["warmup"], *_execute(cli, plan["warmup"]))
    setup_s = perf_counter() - start
    if not os.path.abspath(cli.__file__).startswith(plan["src"] + os.sep):
        print(f"worker: imported exogait from {cli.__file__}, not from "
              f"{plan['src']}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s, "warmup": warmup}
    if mode == "run":
        result.update(_measure(cli, plan))
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
