"""Command-line front end: trial ingestion through statistics, simulation,
and the device complexity index.

Subcommands: inspect (trial summary), analyze (gap fill, smoothing, stride
segmentation, normalization, per-stride features CSV plus 101-row ensemble
CSV), compare (random-intercept model plus TOST verdict JSON over strides
CSVs), simulate (closed-loop tension controller, summary JSON and optional
trace CSV), complexity (weighted device complexity index).

Every option can also be supplied through --config FILE, a JSON object
keyed by the option's long name with dashes as underscores; explicit
command-line flags win over config values. Exit codes: 0 success, 1 usage
error, 2 data error; every failure prints a single
``exogait: error: <message>`` line on standard error. Identical inputs and
seed produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from itertools import compress, islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from .assist import (
    DEFAULT_MOMENT_ARM,
    DEFAULT_PROFILE,
    TensionConversion,
    TorqueProfile,
)
from .c3d import read_c3d
from .csvio import _read as _read_csv, read_events_csv
from .cycles import (
    NormalizedCycle,
    ensemble,
    cycle_features,
    normalize_cycle,
    segment_strides,
    temporal_params,
)
from .errors import (
    AllWeightsZero,
    EmptyResult,
    ExogaitError,
    InvalidProfile,
    MalformedCsv,
    MissingFootOff,
    NonNumericCell,
    BadHeaderRow,
    StrideOutsideSeries,
)
from .phase import FsrConfig
from .preprocess import GapFillSpec, SmoothingSpec, fill_gaps, smooth_to_mse
from .simulate import (
    DEFAULT_GAINS,
    PidGains,
    PlantParams,
    run_simulation,
)
from .stats import compare_trials, tost_welch
from .trial import EventKind, Side, Trial

SCHEMA_VERSION = 1

# Ticks converted to Python numbers at a time when writing a --trace CSV.
_TRACE_CHUNK = 512
# Strides CSV rows tokenized at a time by compare.
_ROW_CHUNK = 4096
# Bytes of a plain strides CSV split at a time by compare.
_PLAIN_BLOCK = 1 << 20
# Bytes a strides CSV needs for compare to try it as plain. csv.reader
# reads a smaller file quicker than numpy's fixed costs allow, and reads a
# pipe (size 0), which can be read only once.
_PLAIN_MIN_BYTES = 8192
# A plain block whose cells, padded to the longest, would take more than
# this many bytes per byte of the block is left to csv.reader.
_BYTES_PAD = 8
# Bytes csv.reader gives a meaning of their own besides ',' and '\n': the
# quote, the carriage return and, before Python 3.11, NUL.
_NOT_PLAIN = (b'"', b"\r") + ((b"\0",) if sys.version_info < (3, 11) else ())
# The bytes of a plain decimal feature cell, which numpy parses, and the
# newline that ends each cell from _cells.
_DECIMAL = np.zeros(256, bool)
_DECIMAL[np.frombuffer(b"0123456789.eE+-\n", np.uint8)] = True

STRIDE_COLUMNS = [
    "trial_id",
    "condition",
    "side",
    "stride_index",
    "rom",
    "peak_dorsiflexion",
    "peak_plantarflexion",
    "peak_plantarflexion_moment",
    "cycle_duration",
    "stance_duration",
    "swing_duration",
    "stance_pct",
    "swing_pct",
]

_ANGLE_FEATURES = {"rom", "peak_dorsiflexion", "peak_plantarflexion"}
_DURATION_FEATURES = {"cycle_duration", "stance_duration", "swing_duration"}

_SIDES = {"left": (Side.LEFT,), "right": (Side.RIGHT,),
          "both": (Side.LEFT, Side.RIGHT)}


class _UsageError(Exception):
    pass


@dataclass(frozen=True)
class ComplexityInputs:
    limbs: int
    dof: int
    sensors: int
    actuators: int
    w_limbs: float
    w_dof: float
    w_sensors: float
    w_actuators: float

    def __post_init__(self) -> None:
        for name in ("limbs", "dof", "sensors", "actuators"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("w_limbs", "w_dof", "w_sensors", "w_actuators"):
            weight = getattr(self, name)
            if not 0 <= weight < math.inf:
                raise ValueError(
                    f"{name} must be finite and >= 0, got {weight}"
                )


def complexity_index(inputs: ComplexityInputs) -> float:
    """Weighted sum w_L*L + w_D*D + w_S*S + w_A*A."""
    weights = (inputs.w_limbs, inputs.w_dof, inputs.w_sensors,
               inputs.w_actuators)
    if all(w == 0 for w in weights):
        raise AllWeightsZero("all four complexity weights are zero")
    counts = (inputs.limbs, inputs.dof, inputs.sensors, inputs.actuators)
    return float(sum(w * c for w, c in zip(weights, counts)))


def _as_str(name, value) -> str:
    if not isinstance(value, str):
        raise _UsageError(f"{name} must be a string, got {value!r}")
    return value


def _as_int(name, value) -> int:
    try:
        if isinstance(value, bool):
            raise ValueError
        return int(value)
    except (TypeError, ValueError):
        raise _UsageError(f"{name} must be an integer, got {value!r}") from None


def _as_float(name, value) -> float:
    try:
        if isinstance(value, bool):
            raise ValueError
        return float(value)
    except (TypeError, ValueError):
        raise _UsageError(f"{name} must be a number, got {value!r}") from None


def _as_floats(name, value, n) -> tuple[float, ...]:
    if isinstance(value, str):
        parts = [p.strip() for p in value.split(",")]
    elif isinstance(value, (list, tuple)):
        parts = list(value)
    else:
        raise _UsageError(f"{name} must be {n} comma-separated numbers")
    if len(parts) != n:
        raise _UsageError(
            f"{name} must have exactly {n} values, got {len(parts)}"
        )
    return tuple(_as_float(name, p) for p in parts)


def _as_names(name, value) -> tuple[str, ...]:
    if isinstance(value, str):
        parts = [p.strip() for p in value.split(",") if p.strip()]
    elif isinstance(value, (list, tuple)):
        parts = [_as_str(name, p) for p in value]
    else:
        raise _UsageError(f"{name} must be a comma-separated list")
    if not parts:
        raise _UsageError(f"{name} must not be empty")
    return tuple(parts)


def _as_assignments(name, value) -> dict[str, float]:
    if isinstance(value, dict):
        return {k: _as_float(f"{name}.{k}", v) for k, v in value.items()}
    if not isinstance(value, str):
        raise _UsageError(f"{name} must be key=value pairs")
    out: dict[str, float] = {}
    for part in value.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, raw = part.partition("=")
        if not sep:
            raise _UsageError(f"{name}: expected key=value, got {part!r}")
        out[key.strip()] = _as_float(f"{name}.{key.strip()}", raw.strip())
    return out


# Per-command option tables: dest -> (converter, default, help). Each entry
# is the option --dest (dashes for underscores) and the key of the same name
# in a --config JSON object.
_OPTION_TABLE: dict[str, dict[str, tuple]] = {
    "inspect": {
        "events": (_as_str, None, "events sidecar CSV"),
    },
    "analyze": {
        "events": (_as_str, None, "events sidecar CSV"),
        "signal": (
            _as_str, None,
            "angle series: analog channel label or marker axis LABEL.x|y|z",
        ),
        "moment": (_as_str, None, "plantarflexor moment series"),
        "side": (_as_str, "both", "left, right, or both (default)"),
        "trial_id": (_as_str, None, None),
        "condition": (_as_str, "NoExo", "condition label for the CSV"),
        "target_mse": (
            _as_float, 10.0,
            "smoothing residual MSE target; 0 disables smoothing",
        ),
        "max_gap": (_as_int, 10, "longest marker gap to fill, frames"),
        "out_strides": (_as_str, "strides.csv", None),
        "out_ensemble": (_as_str, "ensemble.csv", None),
    },
    "compare": {
        "features": (_as_names,
                     ("rom", "peak_dorsiflexion", "peak_plantarflexion"),
                     "comma-separated feature list"),
        "baseline": (_as_str, "NoExo", "condition coded 0"),
        "treatment": (_as_str, "ExoOff", "condition coded 1"),
        "alpha": (_as_float, 0.05, None),
        "angle_bound": (_as_float, 2.0, None),
        "duration_bound": (_as_float, 0.05, None),
        "bound": (_as_float, None,
                  "equivalence bound overriding the per-class defaults"),
        "out": (_as_str, None, "verdict JSON path (default stdout)"),
    },
    "simulate": {
        "cycles": (_as_int, 10, None),
        "seed": (_as_int, 0, None),
        "gains": (lambda n, v: _as_floats(n, v, 4), None, "kp,ki,kd,ff"),
        "profile": (lambda n, v: _as_floats(n, v, 4), None,
                    "onset_gc,peak_gc,end_gc,peak_torque"),
        "moment_arm": (_as_float, DEFAULT_MOMENT_ARM, None),
        "jitter": (_as_float, 0.0, "stride duration jitter fraction"),
        "constant_reference": (
            _as_float, None,
            "fixed tension reference (N), bypassing the profile",
        ),
        "plant": (_as_assignments, None, "plant overrides, name=value pairs"),
        "trace": (_as_str, None, "per-tick trace CSV path"),
    },
    "complexity": {
        "limbs": (_as_int, None, None),
        "dof": (_as_int, None, None),
        "sensors": (_as_int, None, None),
        "actuators": (_as_int, None, None),
        "weights": (lambda n, v: _as_floats(n, v, 4), None,
                    "w_limbs,w_dof,w_sensors,w_actuators"),
    },
}

# Per-command help and positional arguments (name -> nargs), in the order
# the subcommands are listed.
_COMMANDS: dict[str, tuple[str, dict]] = {
    "inspect": ("print a trial summary", {"input": None}),
    "analyze": ("per-stride features and ensemble curves", {"input": None}),
    "compare": ("equivalence verdict over strides CSVs", {"inputs": "+"}),
    "simulate": ("closed-loop tension simulation", {}),
    "complexity": ("weighted complexity index", {}),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 via _UsageError, single line
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="exogait", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, positionals) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, nargs in positionals.items():
            p.add_argument(name, nargs=nargs)
        for dest, (_, _, option_help) in _OPTION_TABLE[command].items():
            p.add_argument("--" + dest.replace("_", "-"), help=option_help)
        p.add_argument("--config", help="JSON file mirroring the flags")
    return parser


# Built once: parse_args leaves the parser unchanged, and building it costs
# milliseconds on every run() call.
_PARSER = _build_parser()


def _resolve(args: argparse.Namespace) -> dict:
    """Merge CLI flags over --config values over defaults."""
    table = _OPTION_TABLE[args.command]
    config = {}
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            try:
                config = json.load(fh)
            except json.JSONDecodeError as exc:
                raise _UsageError(f"config {args.config}: {exc}") from None
        if not isinstance(config, dict):
            raise _UsageError("config must be a JSON object")
        for key in config:
            if key not in table:
                raise _UsageError(
                    f"unknown config key {key!r} for {args.command}"
                )
    values = {}
    for dest, (convert, default, _) in table.items():
        cli = getattr(args, dest, None)
        if cli is not None:
            values[dest] = convert(dest, cli)
        elif dest in config and config[dest] is not None:
            values[dest] = convert(dest, config[dest])
        else:
            values[dest] = default
    for name in _COMMANDS[args.command][1]:
        values[name] = getattr(args, name)
    return values


def _require(values: dict, *names: str) -> None:
    for name in names:
        if values[name] is None:
            flag = "--" + name.replace("_", "-")
            raise _UsageError(f"{flag} is required")


def _load_trial(path: str, columns):
    """The trial at path with every marker and analog label in it; a CSV
    trial converts only the marker and analog columns labelled in columns."""
    if path.lower().endswith(".c3d"):
        trial = read_c3d(Path(path).read_bytes())
        return (trial, [m.label for m in trial.markers],
                [c.label for c in trial.analogs])
    return _read_csv(Path(path).read_bytes(), columns)


def _load_events(trial: Trial, events_path: str | None) -> list:
    """The trial's own events and those of the sidecar, sorted."""
    events = list(trial.events)
    if events_path is not None:
        events.extend(read_events_csv(Path(events_path).read_text(
            encoding="utf-8")))
    return sorted(events)


def _fmt(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    return x


def _emit_json(obj, path: str | None) -> None:
    text = json.dumps(_jsonable(obj), indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _cmd_inspect(values: dict) -> int:
    path = values["input"]
    # A CSV trial's labels come from its header; no marker or analog cell
    # is converted.
    trial, markers, analogs = _load_trial(path, ())
    events = _load_events(trial, values["events"])
    print(f"file: {path}")
    print(
        f"frames: {trial.first_frame}..{trial.last_frame} "
        f"({trial.n_frames} at {_fmt(trial.point_rate)} Hz, "
        f"{_fmt(trial.duration)} s)"
    )
    print(f"markers: {len(markers)} [{' '.join(markers)}]")
    print(
        f"analog: {len(analogs)} channels at "
        f"{_fmt(trial.analog_rate)} Hz [{' '.join(analogs)}]"
    )
    counts = []
    for side in (Side.LEFT, Side.RIGHT):
        for kind in (EventKind.FOOT_STRIKE, EventKind.FOOT_OFF):
            n = sum(1 for e in events if e.side is side and e.kind is kind)
            counts.append(f"{side.value} {kind.value} {n}")
    print(f"events: {len(events)} ({', '.join(counts)})")
    meta = "; ".join(f"{k}={v}" for k, v in trial.subject_meta.items())
    print(f"meta: {meta}")
    return 0


def _marker_axis(name: str):
    """(marker label, axis index) of '<label>.x', '.y' or '.z', else None."""
    if len(name) > 2 and name[-2] == "." and name[-1] in "xyz":
        return name[:-2], "xyz".index(name[-1])
    return None


def _resolve_series(trial: Trial, name: str, gap_fill: GapFillSpec):
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


def _cmd_analyze(values: dict) -> int:
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
    gap_fill = GapFillSpec(max_gap=values["max_gap"])
    # The analog and the marker that each series name can select.
    columns = set()
    for name in (values["signal"], values["moment"]):
        if name is not None:
            columns.add(name)
            if _marker_axis(name) is not None:
                columns.add(_marker_axis(name)[0])
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
        samples, achieved, met = smooth_to_mse(
            samples, rate, SmoothingSpec(target_mse=target_mse)
        )
        state = "met" if met else "not met"
        print(f"smoothing: residual MSE {_fmt(achieved)} (target {state})")
    moment = None
    if values["moment"] is not None:
        m_samples, m_rate, m_valid = _resolve_series(
            trial, values["moment"], gap_fill
        )
        moment = (m_samples, m_rate, m_valid)

    kept_rows: list[list[str]] = []
    angle_cycles: list[NormalizedCycle] = []
    moment_cycles: list[NormalizedCycle] = []
    excluded = 0

    def window_valid(valid, series_rate, stride) -> bool:
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
                angle = normalize_cycle(
                    samples, rate, stride, start_time=origin,
                    variable=values["signal"], units="deg",
                )
                m_cycle = None
                if moment is not None:
                    m_cycle = normalize_cycle(
                        moment[0], moment[1], stride, start_time=origin,
                        variable=values["moment"], units="Nm/kg",
                    )
            except StrideOutsideSeries:
                excluded += 1
                continue
            try:
                temporal = temporal_params(stride)
            except MissingFootOff:
                temporal = None
            features = cycle_features(angle, m_cycle)
            angle_cycles.append(angle)
            if m_cycle is not None:
                moment_cycles.append(m_cycle)
            kept_rows.append([
                trial_id,
                values["condition"],
                side.value,
                str(index),
                _fmt(features.rom),
                _fmt(features.peak_dorsiflexion),
                _fmt(features.peak_plantarflexion),
                _fmt(features.peak_plantarflexion_moment),
                _fmt(stride.end_time - stride.start_time),
                _fmt(temporal.stance_duration if temporal else None),
                _fmt(temporal.swing_duration if temporal else None),
                _fmt(temporal.stance_pct if temporal else None),
                _fmt(temporal.swing_pct if temporal else None),
            ])

    if not angle_cycles:
        raise EmptyResult("no stride survived quality checks")
    with open(values["out_strides"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(STRIDE_COLUMNS)
        writer.writerows(kept_rows)

    mean_c, sd_c = ensemble(angle_cycles)
    header = ["gc", "angle_mean", "angle_sd"]
    columns = [mean_c.samples, sd_c.samples]
    if moment_cycles:
        m_mean, m_sd = ensemble(moment_cycles)
        header += ["moment_mean", "moment_sd"]
        columns += [m_mean.samples, m_sd.samples]
    with open(values["out_ensemble"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(len(mean_c.samples)):
            writer.writerow([str(i)] + [_fmt(col[i]) for col in columns])

    print(f"strides: {len(kept_rows)} kept, {excluded} excluded")
    print(f"wrote {values['out_strides']} and {values['out_ensemble']}")
    return 0


def _read_strides_csv(paths, labels, features) -> tuple:
    """The labelled rows of every strides CSV, in file order:
    (conditions, trial_codes, trial_names, cells).

    A row is labelled when its condition cell is labels[0] (condition 0) or
    labels[1] (condition 1); other rows are dropped. trial_names holds the
    trial ids of labelled rows in order of first appearance, and
    trial_codes[i] indexes it. cells[feature] is a list of pieces for
    _feature_values, in row order.

    Rows read as csv.DictReader reads them: blank lines are skipped, a
    repeated header name reads its last column, and a cell past the end of
    a short row, or in a column the file lacks, is missing (None, or empty
    in a plain file). A plain file (see _read_plain) is split at its commas
    and newlines; any other is read by csv.reader, _ROW_CHUNK rows at a
    time. Every file is read before any feature cell is parsed.
    """
    features = list(dict.fromkeys(features))
    trials: dict[str, int] = {}
    conditions = [np.empty(0, np.intp)]
    trial_codes = [np.empty(0, np.intp)]
    cells: dict[str, list] = {name: [] for name in features}
    for path in paths:
        blocks = _read_plain(path, labels, features)
        if blocks is None:
            blocks = _read_rows(path, labels, features)
        for block_conditions, names, codes, block_cells in blocks:
            recode = np.array(
                [trials.setdefault(name, len(trials)) for name in names],
                np.intp,
            )
            conditions.append(block_conditions)
            trial_codes.append(recode[codes])
            for piece, pieces in zip(block_cells, cells.values()):
                pieces.append(piece)
    return (np.concatenate(conditions), np.concatenate(trial_codes),
            list(trials), cells)


# A block, as _read_rows and _read_plain give it, holds the labelled rows
# of some lines of a file: (conditions, names, codes, cells), with the
# condition of each row, the block's trial ids in order of first
# appearance, each row's index into them, and one piece of cells per
# feature.


def _read_rows(path, labels, features) -> list[tuple]:
    """The blocks of a strides CSV read by csv.reader."""
    blocks = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or "trial_id" not in header or \
                    "condition" not in header:
                raise BadHeaderRow(
                    f"{path}: strides CSV needs trial_id and condition "
                    "columns"
                )
            where = {name: j for j, name in enumerate(header)}
            while chunk := list(islice(reader, _ROW_CHUNK)):
                rows = [row for row in chunk if row]
                width = min(map(len, rows), default=0)
                blocks.append(_string_block([
                    _column(rows, where.get(name), width)
                    for name in ("condition", "trial_id", *features)
                ], labels))
        except csv.Error as exc:
            raise MalformedCsv(
                f"{path}: line {reader.line_num}: {exc}"
            ) from None
    return blocks


def _column(rows, j, width) -> list:
    """Cell j of every row, None past the end of a short row or when j is
    None; width is the length of the shortest row."""
    if j is None:
        return [None] * len(rows)
    if j < width:
        return list(map(itemgetter(j), rows))
    return [row[j] if j < len(row) else None for row in rows]


def _string_block(columns, labels) -> tuple:
    """The block of rows given as columns of strings (None for a missing
    cell): their conditions, their trial ids, then one per feature."""
    coding = {label: code for code, label in enumerate(labels)}
    coded = list(map(coding.get, columns[0]))
    labelled = [code is not None for code in coded]
    # str() of a missing cell, as DictReader gave it
    ids = ["None" if t is None else t for t in compress(columns[1], labelled)]
    names = list(dict.fromkeys(ids))
    index = {name: code for code, name in enumerate(names)}
    return (
        np.array(list(compress(coded, labelled)), np.intp),
        names,
        np.fromiter(map(index.__getitem__, ids), np.intp, len(ids)),
        [list(compress(column, labelled)) for column in columns[2:]],
    )


def _read_plain(path, labels, features) -> list[tuple] | None:
    """The blocks of a plain strides CSV, or None for any other file.

    A file is plain when it is UTF-8 without the bytes in _NOT_PLAIN, its
    header line names trial_id and condition, every other line is blank or
    holds exactly as many commas as the header, and no line is longer than
    the csv field limit. csv.reader splits such a file at its commas and
    newlines, so those are all that is looked for. The file is taken apart
    on its bytes (see _split_plain and _bytes_block) in blocks of whole
    lines, about _PLAIN_BLOCK bytes each. A file smaller than
    _PLAIN_MIN_BYTES is not looked at.
    """
    if os.stat(path).st_size < _PLAIN_MIN_BYTES:
        return None
    limit = csv.field_size_limit()
    with open(path, "rb") as fh:
        head = fh.readline(limit + 1).removesuffix(b"\n")
        try:
            header = head.decode().split(",")
        except UnicodeDecodeError:
            return None
        if len(head) > limit or any(byte in head for byte in _NOT_PLAIN) \
                or "trial_id" not in header or "condition" not in header:
            return None
        where = {name: j for j, name in enumerate(header)}
        columns = [where.get(name)
                   for name in ("condition", "trial_id", *features)]
        width = len(header)
        blocks = []
        rest = b""
        while True:
            chunk = fh.read(_PLAIN_BLOCK)
            if chunk:
                block = rest + chunk
                cut = block.rfind(b"\n") + 1
                block, rest = block[:cut], block[cut:]
            elif rest:  # a last line without its newline
                block, rest = rest + b"\n", b""
            else:
                return blocks
            if any(byte in block for byte in _NOT_PLAIN) or len(rest) > limit:
                return None
            try:
                block.decode()
            except UnicodeDecodeError:
                return None
            split = _split_plain(np.frombuffer(block, np.uint8), width,
                                 columns)
            if split is None:
                return None
            blocks.append(_bytes_block(*split, labels))


def _split_plain(buf, width, columns) -> tuple | None:
    """(buf, starts, lengths) of the bytes of a block of whole lines that
    holds no byte of _NOT_PLAIN: its bytes without blank lines, and where
    the cells of the given columns start and how long they are, a row per
    line. A column the file lacks (None) has empty cells. None when a line
    does not hold width - 1 commas or is longer than the field limit, or
    when padding the cells to the longest would take more than _BYTES_PAD
    bytes per byte of the block."""
    newline = buf == ord("\n")
    # A newline first or right after another ends a blank line, which holds
    # no row.
    blank = newline.copy()
    blank[1:] &= newline[:-1]
    if blank.any():
        buf = buf[~blank]
        newline = buf == ord("\n")
    seps = (newline | (buf == ord(","))).nonzero()[0]
    n = int(np.count_nonzero(newline))
    # Groups of width separators, each ending at a newline: every line
    # holds width - 1 commas.
    line_ends = seps[width - 1::width]
    if seps.size != n * width or not newline[line_ends].all():
        return None
    limit = csv.field_size_limit()
    if buf.size > limit and np.diff(line_ends, prepend=-1).max() > limit + 1:
        return None
    # A cell ends at its separator and starts after the one before.
    before = np.empty_like(seps)
    before[:1] = -1
    before[1:] = seps[:-1]
    take = [j or 0 for j in columns]
    starts = before.reshape(n, width)[:, take] + 1
    lengths = seps.reshape(n, width)[:, take] - starts
    lengths[:, [j is None for j in columns]] = 0
    padded = lengths.size * (int(lengths.max(initial=0)) + 1)
    if padded > _BYTES_PAD * buf.size:
        return None
    return buf, starts, lengths


def _bytes_block(buf, starts, lengths, labels) -> tuple:
    """The block of a split plain block's rows, taken apart on its bytes.

    The columns are those of _string_block. A row is labelled when its
    condition cell has the UTF-8 bytes of a label; a label that UTF-8
    cannot spell, such as a lone surrogate, matches no cell. Trial ids are
    told apart on their bytes, and only the distinct ones are decoded. A
    feature column whose cells hold nothing but [0-9.eE+-] stays a bytes
    array, which _feature_values hands to numpy; any other is decoded into
    strings.
    """
    cells = _cells(buf, starts, lengths)
    coded = np.full(len(cells), -1, np.intp)
    for code, label in enumerate(labels):
        try:
            coded[cells[:, 0] == label.encode() + b"\n"] = code
        except UnicodeEncodeError:
            pass
    labelled = coded >= 0
    cells, lengths = cells[labelled], lengths[labelled]
    distinct, first, codes = np.unique(cells[:, 1], return_index=True,
                                       return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    names = [name[:-1].decode() for name in distinct[order].tolist()]
    pieces = []
    for k in range(2, cells.shape[1]):
        column = cells[:, k].copy()
        # Every byte of the cells in [0-9.eE+-]? The newline after each
        # cell counts as one such byte, the padding as none.
        decimal = np.count_nonzero(_DECIMAL.take(column.view(np.uint8)))
        if decimal != lengths[:, k].sum() + column.size:
            column = [cell[:-1].decode() for cell in column.tolist()]
        pieces.append(column)
    return coded[labelled], names, rank[codes], pieces


def _cells(buf, starts, lengths) -> np.ndarray:
    """The cells buf[start:start + length], in the shape of starts, as a
    numpy bytes array with a newline after each cell. No plain cell holds a
    newline, and it keeps a cell's own trailing NULs, which a bytes array
    would drop, part of the cell."""
    width = int(lengths.max(initial=0)) + 1
    short = int(starts.max(initial=0)) + width - buf.size
    if short > 0:  # the windows of the last cells run past the block
        buf = np.concatenate((buf, np.zeros(short, np.uint8)))
    windows = np.ndarray((buf.size - width + 1, width), np.uint8, buf,
                         strides=(1, 1))
    cells = windows[starts]
    cells *= np.arange(width) < lengths[..., None]
    cells.reshape(-1, width)[np.arange(lengths.size), lengths.ravel()] = \
        ord("\n")
    return cells.view(f"S{width}")[..., 0]


def _feature_values(
    feature: str, pieces: list
) -> tuple[np.ndarray, np.ndarray]:
    """(values, keep): the cells that are not empty once stripped, as
    floats, and a mask of which cells they are.

    A piece is a list of cells, str or None for a missing one, or a bytes
    array from _bytes_block of cells that hold only [0-9.eE+-], each
    followed by a newline. numpy's cast parses those as float() does.
    """
    values, keeps = [np.empty(0)], [np.empty(0, bool)]
    for cells in pieces:
        if isinstance(cells, np.ndarray):
            keep = cells != b"\n"
            try:
                with np.errstate(over="ignore"):  # 1e309 reads as inf
                    values.append(cells[keep].astype(float))
                keeps.append(keep)
                continue
            except ValueError:  # name the first cell float() rejects
                cells = [cell[:-1].decode() for cell in cells.tolist()]
        if None in cells:
            cells = [cell or "" for cell in cells]
        stripped = list(map(str.strip, cells))
        keep = list(map(bool, stripped))
        kept = list(compress(stripped, keep))
        try:
            values.append(np.fromiter(map(float, kept), float, len(kept)))
        except ValueError:
            for cell in kept:
                try:
                    float(cell)
                except ValueError:
                    raise NonNumericCell(
                        f"feature {feature!r}: cannot parse {cell!r}"
                    ) from None
            raise
        keeps.append(np.array(keep, dtype=bool))
    return np.concatenate(values), np.concatenate(keeps)


def _cmd_compare(values: dict) -> int:
    if not 0 < values["alpha"] < 1:
        raise _UsageError(f"--alpha must be in (0, 1), got {values['alpha']}")
    for key in ("angle_bound", "duration_bound", "bound"):
        bound = values[key]
        if bound is not None and not 0 < bound < math.inf:
            raise _UsageError(
                f"--{key.replace('_', '-')} must be positive and finite, "
                f"got {bound}"
            )
    baseline, treatment = values["baseline"], values["treatment"]
    if baseline == treatment:
        raise _UsageError("condition labels must be distinct")
    conditions, trial_codes, trial_names, cells = _read_strides_csv(
        values["inputs"], (baseline, treatment), values["features"]
    )
    report = {
        "schema_version": SCHEMA_VERSION,
        "baseline": baseline,
        "treatment": treatment,
        "alpha": values["alpha"],
        "features": [],
    }
    for feature in values["features"]:
        if values["bound"] is not None:
            bound = values["bound"]
        elif feature in _ANGLE_FEATURES:
            bound = values["angle_bound"]
        elif feature in _DURATION_FEATURES:
            bound = values["duration_bound"]
        else:
            raise _UsageError(
                f"feature {feature!r} has no default bound; pass --bound"
            )
        strides, keep = _feature_values(feature, cells[feature])
        kept_conditions = conditions[keep]
        fit, means_a, means_b = compare_trials(
            strides, kept_conditions, trial_codes[keep], trial_names
        )
        tost = tost_welch(means_a, means_b, bound, alpha=values["alpha"])
        n0 = int(np.count_nonzero(kept_conditions == 0))
        report["features"].append({
            "feature": feature,
            "bound": bound,
            "n_strides": {"baseline": n0, "treatment": len(strides) - n0},
            "n_trials": {"baseline": len(means_a),
                         "treatment": len(means_b)},
            "lme": dataclasses.asdict(fit),
            "tost": dataclasses.asdict(tost),
            "equivalent": tost.equivalent,
        })
    _emit_json(report, values["out"])
    return 0


def _cmd_simulate(values: dict) -> int:
    if values["cycles"] < 1:
        raise _UsageError("--cycles must be >= 1")
    if values["seed"] < 0:
        raise _UsageError("--seed must be >= 0")
    try:
        profile = (
            TorqueProfile(*values["profile"])
            if values["profile"] is not None else DEFAULT_PROFILE
        )
        gains = (
            PidGains(*values["gains"])
            if values["gains"] is not None else DEFAULT_GAINS
        )
        conversion = TensionConversion(moment_arm=values["moment_arm"])
        plant = PlantParams()
        if values["plant"] is not None:
            fields = {f.name for f in dataclasses.fields(PlantParams)}
            unknown = set(values["plant"]) - fields
            if unknown:
                raise _UsageError(
                    f"unknown plant parameter(s): {', '.join(sorted(unknown))}"
                )
            plant = dataclasses.replace(plant, **values["plant"])
    except (InvalidProfile, ValueError) as exc:
        raise _UsageError(str(exc)) from None
    if not 0 <= values["jitter"] < 1:
        raise _UsageError("--jitter must be in [0, 1)")
    reference = values["constant_reference"]
    if reference is not None and not math.isfinite(reference):
        raise _UsageError(
            f"--constant-reference must be finite, got {reference!r}"
        )
    result = run_simulation(
        profile,
        conversion,
        gains,
        plant,
        FsrConfig(),
        values["cycles"],
        values["seed"],
        stride_jitter=values["jitter"],
        constant_reference=values["constant_reference"],
    )
    if values["trace"] is not None:
        with open(values["trace"], "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([
                "time", "fsr", "gc", "reference", "measured",
                "tension_true", "cycle",
            ])
            # csv writes a float as its repr, the same text _fmt gives.
            columns = (
                result.time, result.fsr, result.gc, result.reference,
                result.measured, result.tension_true, result.cycle_index,
            )
            for lo in range(0, len(result.time), _TRACE_CHUNK):
                writer.writerows(zip(
                    *(column[lo:lo + _TRACE_CHUNK].tolist() for column in columns)
                ))
    summary = {
        "schema_version": SCHEMA_VERSION,
        "n_ticks": len(result.time),
        "rms_error": result.rms_error,
        "peak_error": result.peak_error,
        "cycles": [dataclasses.asdict(c) for c in result.cycles],
    }
    _emit_json(summary, None)
    return 0


def _cmd_complexity(values: dict) -> int:
    _require(values, "limbs", "dof", "sensors", "actuators", "weights")
    weights = values["weights"]
    try:
        inputs = ComplexityInputs(
            limbs=values["limbs"],
            dof=values["dof"],
            sensors=values["sensors"],
            actuators=values["actuators"],
            w_limbs=weights[0],
            w_dof=weights[1],
            w_sensors=weights[2],
            w_actuators=weights[3],
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    print(complexity_index(inputs))
    return 0


_DISPATCH = {
    "inspect": _cmd_inspect,
    "analyze": _cmd_analyze,
    "compare": _cmd_compare,
    "simulate": _cmd_simulate,
    "complexity": _cmd_complexity,
}


def run(argv: list[str] | None = None) -> int:
    """Parse argv and execute; returns the process exit code."""
    try:
        args = _PARSER.parse_args(argv)
    except _UsageError as exc:
        print(f"exogait: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if not exc.code else 1
    try:
        values = _resolve(args)
        return _DISPATCH[args.command](values)
    except _UsageError as exc:
        print(f"exogait: error: {exc}", file=sys.stderr)
        return 1
    except (ExogaitError, OSError, ValueError, KeyError) as exc:
        print(f"exogait: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
