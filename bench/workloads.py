"""Seeded fixtures and operation plans for the four benchmark workloads.

A plan is a JSON-ready dict that the worker process executes: one warm-up
operation, then a pass (the list of operations one client issues back to
back) that the worker repeats for the run length. Every operation is one
``exogait.cli.run`` call. The seed changes fixture values only; counts and
sizes stay fixed, so runs with different seeds do the same amount of work.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from exogait import (AnalogChannel, EventKind, GaitEvent, MarkerTrajectory,
                     PlantParams, Side, Trial, write_c3d)
from exogait.cli import STRIDE_COLUMNS

RATE = 100.0  # mocap frame rate, Hz
STRIDE_PERIOD = 0.980  # run_simulation's default stride period, s
MAX_GAP = 10  # analyze's default --max-gap
LONG_GAP = 25  # frames; longer than MAX_GAP, so it stays unfilled
ANALYSED_MARKER = "RANK"
MARKERS = (
    "LASI", "RASI", "LPSI", "RPSI", "LTHI", "RTHI", "LKNE", "RKNE", "LTIB",
    "RTIB", "LANK", "RANK", "LHEE", "RHEE", "LTOE", "RTOE", "LSHO", "RSHO",
    "C7", "CLAV",
)
CONDITIONS = ("NoExo", "ExoOff")
POOLED_FEATURES = ("rom", "peak_dorsiflexion", "cycle_duration")

# Sizes used by the benchmark; the self-test swaps in TINY.
SIZES = {
    "session_trials_per_condition": 4,
    "session_long_gap_per_condition": 1,
    "session_frames": 1200,
    "session_markers": 20,
    "warmup_frames": 300,
    "pooled_trials": 200,
    "pooled_rows": 100_000,
    "warmup_pooled_rows": 200,
    "sim_cycles": 4,
}
TINY = {
    "session_trials_per_condition": 3,
    "session_long_gap_per_condition": 1,
    "session_frames": 400,
    "session_markers": 4,
    "warmup_frames": 300,
    "pooled_trials": 8,
    "pooled_rows": 400,
    "warmup_pooled_rows": 80,
    "sim_cycles": 1,
}


# --- session trials -----------------------------------------------------------


def _gait_events(rng, duration):
    """Alternating left/right strikes about 1.05 s apart, on the frame grid."""
    events = []
    strides = {}
    for side, first in ((Side.LEFT, 0.30), (Side.RIGHT, 0.82)):
        strikes = [first]
        while True:
            nxt = strikes[-1] + 1.05 * (1.0 + 0.03 * rng.standard_normal())
            if nxt > duration - 0.25:
                break
            strikes.append(nxt)
        strikes = np.round(np.asarray(strikes) * RATE) / RATE
        for t0, t1 in zip(strikes[:-1], strikes[1:]):
            off = np.round((t0 + (0.60 + 0.02 * rng.random()) * (t1 - t0))
                           * RATE) / RATE
            events.append(GaitEvent(float(off), side, EventKind.FOOT_OFF))
        events.extend(GaitEvent(float(t), side, EventKind.FOOT_STRIKE)
                      for t in strikes)
        strides[side] = strikes
    return sorted(events), strides


def _phase(t, strikes):
    """Continuous gait-cycle count for each time, from one side's strikes."""
    cycles = np.arange(len(strikes), dtype=float)
    period = float(np.mean(np.diff(strikes)))
    ext_t = np.concatenate(([strikes[0] - 10 * period], strikes,
                            [strikes[-1] + 10 * period]))
    ext_c = np.concatenate(([-10.0], cycles, [cycles[-1] + 10.0]))
    return np.interp(t, ext_t, ext_c)


def _session_trial(rng, n_frames, n_markers, long_gap):
    """One walking trial: markers with short gaps, angle/moment analogs."""
    duration = n_frames / RATE
    t = np.arange(n_frames) / RATE
    events, strikes = _gait_events(rng, duration)
    phase = {side: 2 * np.pi * _phase(t, s) for side, s in strikes.items()}
    labels = list(MARKERS[:n_markers])
    if ANALYSED_MARKER not in labels:
        labels[-1] = ANALYSED_MARKER
    markers = []
    for label in labels:
        side = Side.RIGHT if label.startswith("R") else Side.LEFT
        base = rng.uniform([-200, -300, 50], [200, 300, 1500])
        amp = rng.uniform([40, 5, 10], [160, 20, 60])
        shift = rng.uniform(0, 2 * np.pi, 3)
        coords = (base + amp * np.sin(phase[side][:, None] + shift)
                  + 0.3 * amp * np.sin(2 * phase[side][:, None] + 2 * shift)
                  + 1.5 * rng.standard_normal((n_frames, 3)))
        coords = np.round(coords, 4)
        valid = np.ones(n_frames, dtype=bool)
        # Three fillable gaps, one per third of the interior, so that two
        # of them never merge into one longer than MAX_GAP.
        third = (n_frames - 40) // 3
        for k in range(3):
            length = int(rng.integers(2, MAX_GAP - 1))
            lo = 20 + k * third
            start = int(rng.integers(lo, lo + third - length))
            valid[start:start + length] = False
        if long_gap and label == ANALYSED_MARKER:
            start = int(rng.integers(n_frames // 4, 3 * n_frames // 4))
            valid[start:start + LONG_GAP] = False
        markers.append(MarkerTrajectory(label, coords, valid))
    right = phase[Side.RIGHT]
    angle = np.round(12 * np.sin(right) + 6 * np.sin(2 * right - 1)
                     + 0.3 * rng.standard_normal(n_frames), 4)
    moment = np.round(1.4 * np.clip(np.sin(right - 0.8), 0, None)
                      + 0.02 * rng.standard_normal(n_frames), 4)
    analogs = [AnalogChannel("angle", angle, RATE),
               AnalogChannel("moment", moment, RATE)]
    trial = Trial(markers=markers, analogs=analogs, events=events,
                  point_rate=RATE, analog_rate=RATE, first_frame=1,
                  last_frame=n_frames)
    n_strides = sum(len(s) - 1 for s in strikes.values())
    return trial, n_strides


def _csv_text(trial):
    """The documented CSV trial grammar; gap frames are empty x,y,z cells."""
    header = ["time"]
    for m in trial.markers:
        header += [f"{m.label}.x", f"{m.label}.y", f"{m.label}.z"]
    header += [f"analog:{a.label}" for a in trial.analogs]
    n = trial.n_frames
    columns = [[f"{i / RATE:.2f}" for i in range(n)]]
    for m in trial.markers:
        for axis in range(3):
            cells = [f"{v:.4f}" for v in m.coords[:, axis].tolist()]
            for i in np.flatnonzero(~m.valid).tolist():
                cells[i] = ""
            columns.append(cells)
    for a in trial.analogs:
        columns.append([f"{v:.4f}" for v in a.samples.tolist()])
    lines = [",".join(header)]
    lines += [",".join(row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


def _events_text(events):
    names = {Side.LEFT: "Left", Side.RIGHT: "Right",
             EventKind.FOOT_STRIKE: "Foot Strike",
             EventKind.FOOT_OFF: "Foot Off"}
    rows = ["time,context,label"]
    rows += [f"{e.time:.2f},{names[e.side]},{names[e.kind]}" for e in events]
    return "\n".join(rows) + "\n"


def _write_trial(trial, route, stem, work):
    """Write one trial for a route; returns (input path, events path, bytes)."""
    if route == "c3d":
        path = work / f"{stem}.c3d"
        path.write_bytes(write_c3d(trial))
        return path, None, path.stat().st_size
    path = work / f"{stem}.csv"
    path.write_text(_csv_text(trial), encoding="utf-8")
    events = work / f"{stem}_events.csv"
    events.write_text(_events_text(trial.events), encoding="utf-8")
    return path, events, path.stat().st_size + events.stat().st_size


def _trial_ops(trial, n_strides, route, stem, condition, work, long_gap):
    path, events, nbytes = _write_trial(trial, route, stem, work)
    source = [str(path)] + (["--events", str(events)] if events else [])
    strides = work / f"{stem}_strides.csv"
    ensemble = work / f"{stem}_ensemble.csv"
    inspect = {
        "kind": "inspect",
        "argv": ["inspect", *source],
        "expect": {"frames": trial.n_frames, "markers": len(trial.markers)},
    }
    analyze = {
        "kind": "analyze",
        "argv": ["analyze", *source, "--signal", f"{ANALYSED_MARKER}.x",
                 "--moment", "moment", "--trial-id", stem,
                 "--condition", condition, "--out-strides", str(strides),
                 "--out-ensemble", str(ensemble)],
        "outputs": [str(strides), str(ensemble)],
        "expect": {"strides": n_strides},
        "work": {"frames": trial.n_frames, "gait_s": trial.duration},
        # An unfilled gap makes the CSV route exit 2 (a known defect); the
        # operation is counted as failed, not as incorrect.
        "may_fail": long_gap,
    }
    size = {"frames": trial.n_frames, "markers": len(trial.markers),
            "bytes": nbytes, "strides": n_strides, "long_gap": long_gap}
    return [inspect, analyze], size


def _session_plan(route, rng, work, sizes):
    per_cond = sizes["session_trials_per_condition"]
    n_long = sizes["session_long_gap_per_condition"]
    ops, trials = [], []
    for condition in CONDITIONS:
        long_idx = set(rng.choice(per_cond, n_long, replace=False).tolist())
        for k in range(per_cond):
            stem = f"{condition}_{k:02d}"
            trial, n_strides = _session_trial(
                rng, sizes["session_frames"], sizes["session_markers"],
                k in long_idx)
            trial_ops, size = _trial_ops(trial, n_strides, route, stem,
                                         condition, work, k in long_idx)
            ops += trial_ops
            trials.append(size)
    verdict = work / "verdict.json"
    ops.append({
        "kind": "compare",
        # The worker appends the strides CSVs that this pass's analyze
        # operations wrote.
        "argv": ["compare", "--out", str(verdict)],
        "inputs_from_pass": True,
        "outputs": [str(verdict)],
        "expect": {"features": ["rom", "peak_dorsiflexion",
                                "peak_plantarflexion"]},
    })
    warm, warm_strides = _session_trial(rng, sizes["warmup_frames"],
                                        sizes["session_markers"], False)
    warm_ops, _ = _trial_ops(warm, warm_strides, route, "warmup", "NoExo",
                             work, False)
    warmup = warm_ops[1]
    fixture = {
        "trials": len(trials),
        "frames": sum(t["frames"] for t in trials),
        "markers": sizes["session_markers"],
        "bytes": sum(t["bytes"] for t in trials),
        "strides": sum(t["strides"] for t in trials),
        "long_gap_trials": sum(t["long_gap"] for t in trials),
    }
    return warmup, ops, fixture


# --- pooled strides table -------------------------------------------------------


def _strides_table(rng, n_trials, n_rows, path):
    """A pooled strides CSV in analyze's column layout; returns the row
    count and the summed stride durations (s)."""
    per_trial = n_rows // n_trials
    n = per_trial * n_trials
    trial_idx = np.repeat(np.arange(n_trials), per_trial)
    cond_idx = trial_idx % 2
    trial_eff = rng.normal(0.0, 1.5, n_trials)[trial_idx]
    rom = 30.0 + 0.4 * cond_idx + trial_eff + rng.normal(0, 2.0, n)
    dorsi = 12.0 + 0.5 * trial_eff + rng.normal(0, 1.0, n)
    plantar = rom - dorsi
    moment = 1.4 + rng.normal(0, 0.08, n)
    cycle = 1.05 + 0.02 * rng.standard_normal(n_trials)[trial_idx] \
        + rng.normal(0, 0.02, n)
    stance_pct = 60.0 + rng.normal(0, 1.0, n)
    stance = cycle * stance_pct / 100.0
    missing = rng.random(n) < 0.02  # foot off missing: empty temporal cells
    side = np.where(rng.random(n) < 0.5, "left", "right")
    columns = [
        [f"t{i:03d}" for i in trial_idx.tolist()],
        [CONDITIONS[c] for c in cond_idx.tolist()],
        side.tolist(),
        [str(i % per_trial) for i in range(n)],
    ]
    for values in (rom, dorsi, plantar, moment, cycle):
        columns.append([repr(v) for v in values.tolist()])
    for values in (stance, cycle - stance, stance_pct, 100.0 - stance_pct):
        cells = [repr(v) for v in values.tolist()]
        for i in np.flatnonzero(missing).tolist():
            cells[i] = ""
        columns.append(cells)
    lines = [",".join(STRIDE_COLUMNS)]
    lines += [",".join(row) for row in zip(*columns)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return n, float(cycle.sum())


def _compare_op(path, out, n_trials, rows, gait_s):
    return {
        "kind": "compare",
        "argv": ["compare", str(path), "--features", ",".join(POOLED_FEATURES),
                 "--out", str(out)],
        "outputs": [str(out)],
        # Pooled features are never empty (only stance/swing cells are), so
        # every row counts.
        "expect": {"features": list(POOLED_FEATURES),
                   "n_strides": {f: rows for f in POOLED_FEATURES},
                   "n_trials": n_trials},
        "work": {"rows": rows, "gait_s": gait_s},
    }


def _pooled_plan(rng, work, sizes):
    n_trials = sizes["pooled_trials"]
    table = work / "pooled_strides.csv"
    rows, gait_s = _strides_table(rng, n_trials, sizes["pooled_rows"], table)
    op = _compare_op(table, work / "verdict.json", n_trials, rows, gait_s)
    warm_table = work / "warmup_strides.csv"
    w_rows, w_gait = _strides_table(rng, 4, sizes["warmup_pooled_rows"],
                                    warm_table)
    warmup = _compare_op(warm_table, work / "warmup_verdict.json", 4, w_rows,
                         w_gait)
    fixture = {"rows": rows, "trials": n_trials, "bytes": table.stat().st_size,
               "features": len(POOLED_FEATURES)}
    return warmup, [op], fixture


# --- closed-loop simulations ----------------------------------------------------


def _simulate_op(sim_seed, cycles, jitter, trace_path):
    """One simulate call with its expected tick count.

    run_simulation draws the stride jitter first from default_rng(seed), so
    the simulated duration, and with it the tick count, follow from the
    arguments alone.
    """
    durations = np.full(cycles, STRIDE_PERIOD)
    if jitter > 0:
        rng = np.random.default_rng(sim_seed)
        durations = durations * (1.0 + rng.uniform(-jitter, jitter, cycles))
    total = float(np.concatenate(([0.0], np.cumsum(durations)))[-1])
    argv = ["simulate", "--cycles", str(cycles), "--seed", str(sim_seed)]
    if jitter > 0:
        argv += ["--jitter", repr(jitter)]
    outputs = []
    if trace_path is not None:
        argv += ["--trace", str(trace_path)]
        outputs.append(str(trace_path))
    return {
        "kind": "simulate",
        "argv": argv,
        "outputs": outputs,
        "expect": {"n_ticks": int(round(total * PlantParams().control_rate)),
                   "trace": trace_path is not None},
        "work": {"gait_s": total},
    }


def _closed_loop_plan(rng, work, sizes):
    cycles = sizes["sim_cycles"]
    seeds = rng.integers(0, 2**31 - 1, 4).tolist()
    ops = [
        _simulate_op(seeds[0], cycles, 0.0, None),
        _simulate_op(seeds[1], cycles, 0.05, None),
        _simulate_op(seeds[2], cycles, 0.0, work / "trace_a.csv"),
        _simulate_op(seeds[3], cycles, 0.05, work / "trace_b.csv"),
    ]
    warmup = _simulate_op(int(rng.integers(0, 2**31 - 1)), 1, 0.0, None)
    fixture = {"cycles": cycles * len(ops),
               "ticks": sum(op["expect"]["n_ticks"] for op in ops),
               "traced_ops": 2, "jittered_ops": 2}
    return warmup, ops, fixture


def build_plan(workload: str, seed: int, work: Path, sizes=SIZES) -> dict:
    """Write the fixtures for one workload under ``work``; return its plan."""
    rng = np.random.default_rng(seed)
    if workload == "session_csv":
        warmup, ops, fixture = _session_plan("csv", rng, work, sizes)
    elif workload == "session_c3d":
        warmup, ops, fixture = _session_plan("c3d", rng, work, sizes)
    elif workload == "pooled_compare":
        warmup, ops, fixture = _pooled_plan(rng, work, sizes)
    elif workload == "closed_loop":
        warmup, ops, fixture = _closed_loop_plan(rng, work, sizes)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "warmup": warmup, "ops": ops,
            "fixture": fixture}
