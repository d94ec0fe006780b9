"""End-to-end and per-layer figures from a worker's raw results.

Every pass runs the same operations on the same inputs, so operation i of
one pass repeats operation i of every other pass. The machines this runs
on are shared, and their speed switches between a fast and a slow state
(up to 2x apart) every few seconds. Some runs never see the fast state,
and short operations also meet one-off stalls of several milliseconds.
Each operation's 90th-percentile latency over its repeats sits in the
slow state that almost every run visits while skipping the stalls, and it
reproduces from run to run better than the fastest repeat, the median or
the slowest repeat. The throughput and median figures are built on it;
the per-layer figures come from the slowest traced pass. Raw latencies
stay in the run record.
"""

from __future__ import annotations

import math
import statistics

OP_QUANTILE = 0.9  # per operation, over its repeats
TAIL_QUANTILE = 0.95  # over every latency sample of a run
TAIL_BEYOND = 10


def _rank(n, q):
    """Index of the nearest-rank q-quantile among n sorted values."""
    return max(math.ceil(q * n), 1) - 1


def ten_beyond(latencies):
    """(value, percentile): the highest percentile with at least ten
    samples above it, or None when there are too few samples."""
    xs = sorted(latencies)
    k = len(xs) - TAIL_BEYOND - 1
    if k < 0:
        return None
    return xs[k], 100.0 * (k + 1) / len(xs)


def _passes(result, traced):
    return [p for p in result["passes"] if p["traced"] == traced]


def typical_ops(result):
    """Per operation of the pass: its untraced repeat at OP_QUANTILE of
    its latencies (nearest rank)."""
    passes = _passes(result, traced=False)
    rank = _rank(len(passes), OP_QUANTILE)
    return [sorted((p["ops"][i] for p in passes),
                   key=lambda op: op["seconds"])[rank]
            for i in range(len(passes[0]["ops"]))]


def _rate(ops, unit):
    seconds = sum(op["seconds"] for op in ops)
    return sum(op["work"].get(unit, 0) for op in ops) / seconds


def latency_summary(result) -> dict:
    """Raw latencies per operation of the pass, and the latency figures.

    The tail is the TAIL_QUANTILE of every sample, which has ten samples
    beyond it once a run holds 200; the record also names the highest
    percentile with ten samples beyond, where the run has one.
    """
    passes = _passes(result, traced=False)
    raw = sorted(op["seconds"] for p in passes for op in p["ops"])
    tail = raw[_rank(len(raw), TAIL_QUANTILE)]
    return {
        "kinds": [op["kind"] for op in passes[0]["ops"]],
        "per_op_s": [[p["ops"][i]["seconds"] for p in passes]
                     for i in range(len(passes[0]["ops"]))],
        "samples": len(raw),
        "p50_ms": 1e3 * statistics.median(
            op["seconds"] for op in typical_ops(result)),
        "tail_ms": 1e3 * tail,
        "tail_percentile": 100.0 * TAIL_QUANTILE,
        "samples_beyond_tail": sum(x > tail for x in raw),
        "ten_beyond": ten_beyond(raw),
    }


def throughput(result) -> dict:
    """Workload-specific rates (zero where the workload does no such
    work), plus failed over attempted operations in every pass."""
    ops = typical_ops(result)
    every = [op for p in result["passes"] for op in p["ops"]]
    simulated = any(op["kind"] == "simulate" for op in ops)
    return {
        "frames_per_s": _rate(ops, "frames"),
        "rows_per_s": _rate(ops, "rows"),
        "sim_realtime_x": _rate(ops, "gait_s") if simulated else 0.0,
        "failed_ratio": sum(op["code"] != 0 for op in every) / len(every),
    }


def end_to_end(result, setup_samples) -> dict:
    lat = latency_summary(result)
    return {
        "realtime_x": _rate(typical_ops(result), "gait_s"),
        "op_p50_ms": lat["p50_ms"],
        "op_tail_ms": lat["tail_ms"],
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(setup_samples),
    }


def _sum(layers, names, key):
    return sum(layers.get(name, {}).get(key, 0) for name in names)


def _ratio(a, b):
    return a / b if b else 0.0


def _pass_seconds(p):
    return sum(op["seconds"] for op in p["ops"])


def slowest_traced_pass(result):
    return max(_passes(result, traced=True), key=_pass_seconds)


def per_layer(result) -> dict:
    traced = slowest_traced_pass(result)
    layers = traced["layers"]

    def layer(prefix):
        return [name for name in layers if name.startswith(prefix + ".")]

    def total(names, key):
        return _sum(layers, names, key)

    def counted(key):
        return sum(op["counts"].get(key, 0) for op in traced["ops"])

    csv_s = total(layer("csvio"), "outer_s")
    c3d_s = total(["c3d.read_c3d"], "s")
    run_sim = ["simulate.run_simulation"]
    ticks = counted("ticks")
    untraced = max(_pass_seconds(p) for p in _passes(result, traced=False))

    figures = throughput(result)
    figures.update({
        "csvio.read_s": csv_s,
        "csvio.calls": total(layer("csvio"), "outer_calls"),
        "csvio.mb_per_s": _ratio(
            total(layer("csvio"), "outer_size") / 1e6, csv_s),
        "c3d.read_s": c3d_s,
        "c3d.mb_per_s": _ratio(total(["c3d.read_c3d"], "size") / 1e6, c3d_s),
        "preprocess.fill_gaps_s": total(["preprocess.fill_gaps"], "s"),
        "preprocess.smooth_s": total(["preprocess.smooth_to_mse"], "s"),
        "preprocess.solves": total(["preprocess.smooth_with_lambda"], "calls"),
        "preprocess.smooth_met_ratio": _ratio(
            total(["preprocess.smooth_to_mse"], "hits"),
            total(["preprocess.smooth_to_mse"], "calls")),
        "cycles.s": total(layer("cycles"), "outer_s"),
        "cycles.normalize_calls": total(["cycles.normalize_cycle"], "calls"),
        "cycles.strides_kept": counted("strides_kept"),
        "cycles.strides_excluded": counted("strides_excluded"),
        "stats.fit_lme_s": total(["stats.fit_lme"], "s"),
        "stats.tost_s": total(["stats.tost_welch"], "s"),
        "stats.trial_means_s": total(["stats.trial_means"], "s"),
        "stats.observations": total(["stats.fit_lme"], "size"),
        "cli.self_s": total(layer("cli"), "self_s"),
        "cli.bytes_written": sum(op["bytes_written"] for op in traced["ops"]),
        "simulate.ticks": ticks,
        "simulate.plant_step_calls": total(["simulate.plant_step"], "calls"),
        "simulate.plant_step_s": total(["simulate.plant_step"], "s"),
        "simulate.pid_step_s": total(["simulate.pid_step"], "s"),
        "simulate.loop_self_s": total(run_sim, "self_s"),
        "simulate.us_per_tick": _ratio(1e6 * total(run_sim, "s"), ticks),
        "phase.detector_s": total(["phase.StrikeDetector.step"], "s"),
        "phase.update_phase_s": total(["phase.update_phase"], "s"),
        "phase.strikes": total(["phase.StrikeDetector.step"], "hits"),
        "assist.reference_tension_s": total(["assist.reference_tension"],
                                            "s"),
        "assist.calls": total(["assist.reference_tension"], "calls"),
        "trace.overhead_ratio": _pass_seconds(traced) / untraced,
    })
    return figures
