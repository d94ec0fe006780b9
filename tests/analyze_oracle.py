"""Reference `analyze` command for the analyze oracle property.

This module keeps the `analyze` orchestration as the command line ran it
before the pipeline became one library call: series lookup, gap filling,
smoothing, the stride loop with its window-validity test, the stance and
swing durations and percentages (empty without a foot off), the features
and the ensembles, inline, one stride at a time. The 101-sample
resampling (np.linspace plus np.interp, with the 1e-9 range check), the
ROM and peaks (max and min) and the ensemble (mean, and SD with ddof=1,
zero for a single cycle) are computed here rather than by the library's
leaf functions, so the property checks the leaves analyze_trial runs over
all kept strides at once too: the batched resampling, cycle_features,
temporal_params and ensemble. A C3D trial is read whole, every marker
and channel converted, so the property also checks the C3D reader's
column limit; a CSV trial goes through the CLI's column-limited loader,
whose partial-read failures are the command's contract. The strides and
ensemble cells are formatted here too, and the ensemble CSV is written
through csv.writer. It is swapped in for cli._cmd_analyze as the handler
in cli._COMMANDS; the CLI must exit with the same code, print the same
stderr and stdout, and write byte-identical strides and ensemble CSVs.
"""

import csv
import math
from pathlib import Path

import numpy as np

from exogait.c3d import read_c3d
from exogait.cli import (
    STRIDE_COLUMNS,
    _SIDES,
    _UsageError,
    _load_events,
    _load_trial,
    _require,
)
from exogait.cycles import segment_strides
from exogait.errors import EmptyResult, StrideOutsideSeries
from exogait.preprocess import fill_gaps, smooth_to_mse


def _fmt(x):
    """A strides or ensemble CSV cell: empty for None, else the float's
    repr."""
    return "" if x is None else repr(float(x))


def _marker_axis(name):
    """(marker label, axis index) of '<label>.x', '.y' or '.z', else None."""
    if len(name) > 2 and name[-2] == "." and name[-1] in "xyz":
        return name[:-2], "xyz".index(name[-1])
    return None


def _resolve_series(trial, name, gap_fill):
    """(samples, rate, validity) for an analog label or marker axis."""
    for ch in trial.analogs:
        if ch.label == name:
            return np.asarray(ch.samples, float), float(ch.rate), None
    marker_axis = _marker_axis(name)
    if marker_axis is not None:
        label, axis = marker_axis
        for mk in trial.markers:
            if mk.label == label:
                filled = fill_gaps(mk, gap_fill)
                return (
                    filled.coords[:, axis].copy(),
                    float(trial.point_rate),
                    filled.valid,
                )
    raise ValueError(
        f"signal {name!r} matches no analog channel and no marker axis"
    )


def _normalize(y, rate, stride, origin):
    """101 samples of y over the stride, by linear interpolation."""
    t_last = origin + (y.size - 1) / rate
    if stride.start_time < origin - 1e-9 or stride.end_time > t_last + 1e-9:
        raise StrideOutsideSeries("stride outside the sampled range")
    t = origin + np.arange(y.size) / rate
    return np.interp(np.linspace(stride.start_time, stride.end_time, 101),
                     t, y)


def _mean_sd(cycles):
    """Pointwise mean and sample SD (zeros for one cycle) of the cycles."""
    arr = np.stack(cycles)
    sd = arr.std(axis=0, ddof=1) if len(cycles) > 1 else np.zeros(101)
    return arr.mean(axis=0), sd


def oracle_cmd_analyze(values):
    """Drop-in for cli._cmd_analyze: same options, output and errors."""
    _require(values, "signal")
    side_key = values["side"]
    if side_key not in _SIDES:
        raise _UsageError(f"--side must be left, right, or both, got {side_key!r}")
    target_mse = values["target_mse"]
    if not 0 <= target_mse < math.inf:
        raise _UsageError(
            f"--target-mse must be finite and >= 0, got {target_mse}"
        )
    if values["max_gap"] < 1:
        raise _UsageError("--max-gap must be >= 1")
    gap_fill = values["max_gap"]
    columns = set()
    for name in (values["signal"], values["moment"]):
        if name is not None:
            columns.add(name)
            if _marker_axis(name) is not None:
                columns.add(_marker_axis(name)[0])
    if values["input"].lower().endswith(".c3d"):
        trial = read_c3d(Path(values["input"]).read_bytes())
    else:
        trial = _load_trial(values["input"], columns)[0]
    events = _load_events(trial, values["events"])
    if not events:
        raise EmptyResult("trial has no gait events; nothing to segment")
    trial_id = values["trial_id"]
    if trial_id is None:
        trial_id = Path(values["input"]).stem

    samples, rate, validity = _resolve_series(
        trial, values["signal"], gap_fill
    )
    origin = (trial.first_frame - 1) / trial.point_rate
    if target_mse > 0:
        samples, achieved, met = smooth_to_mse(samples, rate, target_mse)
        state = "met" if met else "not met"
        print(f"smoothing: residual MSE {_fmt(achieved)} (target {state})")
    moment = None
    if values["moment"] is not None:
        m_samples, m_rate, m_valid = _resolve_series(
            trial, values["moment"], gap_fill
        )
        moment = (m_samples, m_rate, m_valid)

    kept_rows = []
    angle_cycles = []
    moment_cycles = []
    excluded = 0

    def window_valid(valid, series_rate, stride):
        if valid is None:
            return True
        i0 = int(np.floor((stride.start_time - origin) * series_rate))
        i1 = int(np.ceil((stride.end_time - origin) * series_rate))
        i0 = max(i0, 0)
        i1 = min(i1, len(valid) - 1)
        if i1 < i0:
            return False
        return bool(valid[i0 : i1 + 1].all())

    for side in _SIDES[side_key]:
        for index, stride in enumerate(segment_strides(events, side)):
            ok = window_valid(validity, rate, stride)
            if moment is not None:
                ok = ok and window_valid(moment[2], moment[1], stride)
            if not ok:
                excluded += 1
                continue
            try:
                angle = _normalize(samples, rate, stride, origin)
                m_cycle = None
                if moment is not None:
                    m_cycle = _normalize(moment[0], moment[1], stride, origin)
            except StrideOutsideSeries:
                excluded += 1
                continue
            temporal = ["", "", "", ""]
            if stride.foot_off_time is not None:
                # Swing and its percentage by subtraction, so that the
                # additive identities hold exactly.
                cycle = stride.end_time - stride.start_time
                stance = stride.foot_off_time - stride.start_time
                stance_pct = 100.0 * stance / cycle
                temporal = [_fmt(stance), _fmt(cycle - stance),
                            _fmt(stance_pct), _fmt(100.0 - stance_pct)]
            angle_cycles.append(angle)
            if m_cycle is not None:
                moment_cycles.append(m_cycle)
            kept_rows.append([
                trial_id,
                values["condition"],
                side.value,
                str(index),
                _fmt(float(angle.max() - angle.min())),
                _fmt(float(angle.max())),
                _fmt(float(-angle.min())),
                _fmt(None if m_cycle is None else float(m_cycle.max())),
                _fmt(stride.end_time - stride.start_time),
                *temporal,
            ])

    if not angle_cycles:
        raise EmptyResult("no stride survived quality checks")
    with open(values["out_strides"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(STRIDE_COLUMNS)
        writer.writerows(kept_rows)

    header = ["gc", "angle_mean", "angle_sd"]
    columns = list(_mean_sd(angle_cycles))
    if moment_cycles:
        header += ["moment_mean", "moment_sd"]
        columns += _mean_sd(moment_cycles)
    with open(values["out_ensemble"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(101):
            writer.writerow([str(i)] + [_fmt(col[i]) for col in columns])

    print(f"strides: {len(kept_rows)} kept, {excluded} excluded")
    print(f"wrote {values['out_strides']} and {values['out_ensemble']}")
    return 0
