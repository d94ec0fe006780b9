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
from .csvio import read_csv_trial, read_events_csv
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
from .stats import StatConfig, compare_trials, tost_welch
from .trial import EventKind, Side, Trial

SCHEMA_VERSION = 1

# Ticks converted to Python numbers at a time when writing a --trace CSV.
_TRACE_CHUNK = 512
# Strides CSV rows tokenized at a time by compare.
_ROW_CHUNK = 4096
# Bytes of a plain strides CSV split at a time by compare.
_PLAIN_BLOCK = 1 << 20
# Bytes csv.reader gives a meaning of their own besides ',' and '\n': the
# quote, the carriage return and, before Python 3.11, NUL.
_NOT_PLAIN = (b'"', b"\r") + ((b"\0",) if sys.version_info < (3, 11) else ())

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
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


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


# Per-command option tables: dest -> (converter, default). The same table
# names the keys accepted in a --config JSON object.
_OPTION_TABLE: dict[str, dict[str, tuple]] = {
    "inspect": {
        "events": (_as_str, None),
    },
    "analyze": {
        "events": (_as_str, None),
        "signal": (_as_str, None),
        "moment": (_as_str, None),
        "side": (_as_str, "both"),
        "trial_id": (_as_str, None),
        "condition": (_as_str, "NoExo"),
        "target_mse": (_as_float, 10.0),
        "max_gap": (_as_int, 10),
        "out_strides": (_as_str, "strides.csv"),
        "out_ensemble": (_as_str, "ensemble.csv"),
    },
    "compare": {
        "features": (_as_names,
                     ("rom", "peak_dorsiflexion", "peak_plantarflexion")),
        "baseline": (_as_str, "NoExo"),
        "treatment": (_as_str, "ExoOff"),
        "alpha": (_as_float, 0.05),
        "angle_bound": (_as_float, 2.0),
        "duration_bound": (_as_float, 0.05),
        "bound": (_as_float, None),
        "out": (_as_str, None),
    },
    "simulate": {
        "cycles": (_as_int, 10),
        "seed": (_as_int, 0),
        "gains": (lambda n, v: _as_floats(n, v, 4), None),
        "profile": (lambda n, v: _as_floats(n, v, 4), None),
        "moment_arm": (_as_float, DEFAULT_MOMENT_ARM),
        "jitter": (_as_float, 0.0),
        "constant_reference": (_as_float, None),
        "plant": (_as_assignments, None),
        "trace": (_as_str, None),
    },
    "complexity": {
        "limbs": (_as_int, None),
        "dof": (_as_int, None),
        "sensors": (_as_int, None),
        "actuators": (_as_int, None),
        "weights": (lambda n, v: _as_floats(n, v, 4), None),
    },
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 via _UsageError, single line
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="exogait", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_inspect = sub.add_parser("inspect", help="print a trial summary")
    p_inspect.add_argument("input")
    p_inspect.add_argument("--events", help="events sidecar CSV")

    p_analyze = sub.add_parser(
        "analyze", help="per-stride features and ensemble curves"
    )
    p_analyze.add_argument("input")
    p_analyze.add_argument("--events", help="events sidecar CSV")
    p_analyze.add_argument(
        "--signal",
        help="angle series: analog channel label or marker axis LABEL.x|y|z",
    )
    p_analyze.add_argument("--moment", help="plantarflexor moment series")
    p_analyze.add_argument("--side", help="left, right, or both (default)")
    p_analyze.add_argument("--trial-id", dest="trial_id")
    p_analyze.add_argument("--condition", help="condition label for the CSV")
    p_analyze.add_argument(
        "--target-mse", dest="target_mse",
        help="smoothing residual MSE target; 0 disables smoothing",
    )
    p_analyze.add_argument("--max-gap", dest="max_gap",
                           help="longest marker gap to fill, frames")
    p_analyze.add_argument("--out-strides", dest="out_strides")
    p_analyze.add_argument("--out-ensemble", dest="out_ensemble")

    p_compare = sub.add_parser(
        "compare", help="equivalence verdict over strides CSVs"
    )
    p_compare.add_argument("inputs", nargs="+")
    p_compare.add_argument("--features", help="comma-separated feature list")
    p_compare.add_argument("--baseline", help="condition coded 0")
    p_compare.add_argument("--treatment", help="condition coded 1")
    p_compare.add_argument("--alpha")
    p_compare.add_argument("--angle-bound", dest="angle_bound")
    p_compare.add_argument("--duration-bound", dest="duration_bound")
    p_compare.add_argument(
        "--bound", help="equivalence bound overriding the per-class defaults"
    )
    p_compare.add_argument("--out", help="verdict JSON path (default stdout)")

    p_sim = sub.add_parser("simulate", help="closed-loop tension simulation")
    p_sim.add_argument("--cycles")
    p_sim.add_argument("--seed")
    p_sim.add_argument("--gains", help="kp,ki,kd,ff")
    p_sim.add_argument("--profile", help="onset_gc,peak_gc,end_gc,peak_torque")
    p_sim.add_argument("--moment-arm", dest="moment_arm")
    p_sim.add_argument("--jitter", help="stride duration jitter fraction")
    p_sim.add_argument("--constant-reference", dest="constant_reference",
                       help="fixed tension reference (N), bypassing the profile")
    p_sim.add_argument("--plant", help="plant overrides, name=value pairs")
    p_sim.add_argument("--trace", help="per-tick trace CSV path")

    p_cx = sub.add_parser("complexity", help="weighted complexity index")
    p_cx.add_argument("--limbs")
    p_cx.add_argument("--dof")
    p_cx.add_argument("--sensors")
    p_cx.add_argument("--actuators")
    p_cx.add_argument("--weights", help="w_limbs,w_dof,w_sensors,w_actuators")

    for p in (p_inspect, p_analyze, p_compare, p_sim, p_cx):
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
    for dest, (convert, default) in table.items():
        cli = getattr(args, dest, None)
        if cli is not None:
            values[dest] = convert(dest, cli)
        elif dest in config and config[dest] is not None:
            values[dest] = convert(dest, config[dest])
        else:
            values[dest] = default
    for key in ("input", "inputs"):
        if hasattr(args, key):
            values[key] = getattr(args, key)
    return values


def _require(values: dict, *names: str) -> None:
    for name in names:
        if values[name] is None:
            flag = "--" + name.replace("_", "-")
            raise _UsageError(f"{flag} is required")


def _load_trial(path: str, events_path: str | None):
    if path.lower().endswith(".c3d"):
        trial = read_c3d(Path(path).read_bytes())
    else:
        trial = read_csv_trial(Path(path).read_text(encoding="utf-8"))
    events = list(trial.events)
    if events_path is not None:
        events.extend(read_events_csv(Path(events_path).read_text(
            encoding="utf-8")))
    return trial, sorted(events)


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
    trial, events = _load_trial(values["input"], values["events"])
    print(f"file: {values['input']}")
    print(
        f"frames: {trial.first_frame}..{trial.last_frame} "
        f"({trial.n_frames} at {_fmt(trial.point_rate)} Hz, "
        f"{_fmt(trial.duration)} s)"
    )
    labels = " ".join(m.label for m in trial.markers)
    print(f"markers: {len(trial.markers)} [{labels}]")
    channels = " ".join(c.label for c in trial.analogs)
    print(
        f"analog: {len(trial.analogs)} channels at "
        f"{_fmt(trial.analog_rate)} Hz [{channels}]"
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


def _resolve_series(trial: Trial, name: str, gap_fill: GapFillSpec):
    """(samples, rate, validity) for an analog label or marker axis."""
    for ch in trial.analogs:
        if ch.label == name:
            return np.asarray(ch.samples, float), float(ch.rate), None
    if len(name) > 2 and name[-2] == "." and name[-1] in "xyz":
        label, axis = name[:-2], "xyz".index(name[-1])
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
    if values["target_mse"] < 0:
        raise _UsageError("--target-mse must be >= 0")
    if values["max_gap"] < 1:
        raise _UsageError("--max-gap must be >= 1")
    gap_fill = GapFillSpec(max_gap=values["max_gap"])
    trial, events = _load_trial(values["input"], values["events"])
    if not events:
        raise EmptyResult("trial has no gait events; nothing to segment")
    trial_id = values["trial_id"]
    if trial_id is None:
        trial_id = Path(values["input"]).stem

    samples, rate, validity = _resolve_series(
        trial, values["signal"], gap_fill
    )
    origin = (trial.first_frame - 1) / trial.point_rate
    if values["target_mse"] > 0:
        samples, achieved, met = smooth_to_mse(
            samples, rate, SmoothingSpec(target_mse=values["target_mse"])
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
            features = cycle_features(angle, m_cycle, temporal)
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


def _read_strides_csv(paths, names) -> dict[str, list]:
    """The named columns of every strides CSV, in file order.

    Rows read as csv.DictReader reads them: blank lines are skipped, a
    repeated header name reads its last column, and a cell past the end of
    a short row, or in a column the file lacks, is None. A plain file (see
    _read_plain) is split with numpy; any other is read by csv.reader,
    _ROW_CHUNK rows at a time, so only the named columns are held whole.
    """
    columns: dict[str, list] = {name: [] for name in names}
    for path in paths:
        plain = _read_plain(path, list(columns))
        if plain is not None:
            for name, column in columns.items():
                column.extend(plain[name])
            continue
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
                    _extend_columns(
                        columns, where, [row for row in chunk if row]
                    )
            except csv.Error as exc:
                raise MalformedCsv(
                    f"{path}: line {reader.line_num}: {exc}"
                ) from None
    return columns


def _read_plain(path, names) -> dict[str, list] | None:
    """The named columns of a plain strides CSV, or None for any other file.

    A file is plain when it is UTF-8 without the bytes in _NOT_PLAIN, its
    header line names trial_id and condition, every other line is blank or
    holds exactly as many commas as the header, and no line is longer than
    the csv field limit. csv.reader splits such a file at its commas and
    newlines, so numpy finds those on the bytes, and only the named columns
    are decoded into strings. The file is split in blocks of whole lines,
    about _PLAIN_BLOCK bytes each.
    """
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
        # The cells of a row come in header order: the k-th picked column
        # is every p-th cell from the k-th on.
        order = sorted({where[name] for name in names if name in where})
        p = len(order)
        picked = np.zeros(len(header), bool)
        picked[order] = True
        slots = [(name, order.index(where[name]) if name in where else None)
                 for name in names]
        columns = {name: [] for name in names}
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
                return columns
            split = _split_plain(block, picked)
            if split is None or len(rest) > limit:
                return None
            n, cells = split
            for name, k in slots:
                columns[name].extend([None] * n if k is None else cells[k::p])


def _split_plain(block, picked) -> tuple[int, list[str]] | None:
    """(rows, cells) of a block of whole lines: the cells of the columns
    where picked is True, row after row, or None when the block is not
    plain."""
    if any(byte in block for byte in _NOT_PLAIN):
        return None
    try:
        block.decode()
    except UnicodeDecodeError:
        return None
    while b"\n\n" in block:  # a blank line holds no row
        block = block.replace(b"\n\n", b"\n")
    block = block.lstrip(b"\n")
    buf = np.frombuffer(block, np.uint8)
    newline = buf == ord("\n")
    seps = (newline | (buf == ord(","))).nonzero()[0]
    width = picked.size
    n = int(np.count_nonzero(newline))
    # Groups of width separators, each ending at a newline: every line
    # holds width - 1 commas.
    line_ends = seps[width - 1::width]
    if seps.size != n * width or not newline[line_ends].all():
        return None
    limit = csv.field_size_limit()
    if len(block) > limit and np.diff(line_ends, prepend=-1).max() > limit + 1:
        return None
    # A byte belongs to the cell that the next separator ends. Keep the
    # picked cells with their separators and split them as one string.
    cuts = np.concatenate(([-1], seps))
    per_cell = picked[None].repeat(n, axis=0).ravel()
    keep = per_cell.repeat(cuts[1:] - cuts[:-1])
    text = buf[keep]
    text[text == ord(",")] = ord("\n")
    cells = text.tobytes().decode().split("\n")
    cells.pop()  # after the last newline
    return n, cells


def _extend_columns(columns, where, rows) -> None:
    width = min(map(len, rows), default=0)
    for name, column in columns.items():
        j = where.get(name)
        if j is None:
            column.extend([None] * len(rows))
        elif j < width:
            column.extend(map(itemgetter(j), rows))
        else:
            column.extend([row[j] if j < len(row) else None for row in rows])


def _feature_values(
    feature: str, cells: list
) -> tuple[np.ndarray, np.ndarray]:
    """(values, keep): the cells that are not empty once stripped, as
    floats, and a mask of which cells they are."""
    if None in cells:
        cells = [cell or "" for cell in cells]
    stripped = list(map(str.strip, cells))
    keep = list(map(bool, stripped))
    kept = list(compress(stripped, keep))
    try:
        values = np.fromiter(map(float, kept), float, len(kept))
    except ValueError:
        for cell in kept:
            try:
                float(cell)
            except ValueError:
                raise NonNumericCell(
                    f"feature {feature!r}: cannot parse {cell!r}"
                ) from None
        raise
    return values, np.array(keep, dtype=bool)


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
    stat = StatConfig(
        alpha=values["alpha"],
        angle_bound=values["angle_bound"],
        duration_bound=values["duration_bound"],
    )
    baseline, treatment = values["baseline"], values["treatment"]
    if baseline == treatment:
        raise ValueError("condition labels must be distinct")
    columns = _read_strides_csv(
        values["inputs"], ("trial_id", "condition", *values["features"])
    )
    coded = list(map({baseline: 0, treatment: 1}.get, columns["condition"]))
    labelled = [code is not None for code in coded]
    conditions = np.array(list(compress(coded, labelled)), dtype=np.intp)
    trial_ids = list(compress(columns["trial_id"], labelled))
    if None in trial_ids:  # str() of a missing cell, as DictReader gave it
        trial_ids = ["None" if t is None else t for t in trial_ids]
    trial_names = list(dict.fromkeys(trial_ids))
    index = {name: code for code, name in enumerate(trial_names)}
    trial_codes = np.fromiter(map(index.__getitem__, trial_ids), np.intp,
                              len(trial_ids))
    report = {
        "schema_version": SCHEMA_VERSION,
        "baseline": baseline,
        "treatment": treatment,
        "alpha": stat.alpha,
        "features": [],
    }
    for feature in values["features"]:
        if values["bound"] is not None:
            bound = values["bound"]
        elif feature in _ANGLE_FEATURES:
            bound = stat.angle_bound
        elif feature in _DURATION_FEATURES:
            bound = stat.duration_bound
        else:
            raise _UsageError(
                f"feature {feature!r} has no default bound; pass --bound"
            )
        strides, keep = _feature_values(
            feature, list(compress(columns[feature], labelled))
        )
        kept_conditions = conditions[keep]
        fit, means_a, means_b = compare_trials(
            strides, kept_conditions, trial_codes[keep], trial_names
        )
        tost = tost_welch(means_a, means_b, bound, alpha=stat.alpha)
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
