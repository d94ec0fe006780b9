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
from pathlib import Path

import numpy as np

from .assist import (
    DEFAULT_MOMENT_ARM,
    DEFAULT_PROFILE,
    TensionConversion,
    TorqueProfile,
)
from .c3d import read_c3d_with_labels
from .csvio import compare_tables, read_csv_with_labels, read_events_csv
from .cycles import N_SAMPLES, analyze_trial, marker_axis
from .errors import ExogaitError, InvalidProfile
from .simulate import (
    DEFAULT_GAINS,
    PidGains,
    PlantParams,
    run_simulation,
)
from .trial import EventKind, Side, Trial

SCHEMA_VERSION = 1

# Rows converted to Python numbers at a time by _write_numbers.
_TRACE_CHUNK = 512

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
_TIMING_COLUMNS = {"stance_duration", "swing_duration", "stance_pct",
                   "swing_pct"}
_DURATION_FEATURES = {"cycle_duration", "stance_duration", "swing_duration"}

_SIDES = {"left": (Side.LEFT,), "right": (Side.RIGHT,),
          "both": (Side.LEFT, Side.RIGHT)}


class _UsageError(Exception):
    pass


# The counts of the complexity index, in the order of its weights.
_COUNTS = ("limbs", "dof", "sensors", "actuators")


def complexity_index(counts, weights) -> float:
    """Weighted sum w_L*L + w_D*D + w_S*S + w_A*A of the counts and weights,
    each in the order of _COUNTS."""
    for name, count in zip(_COUNTS, counts):
        if count < 0:
            raise ValueError(f"{name} must be >= 0")
    for name, weight in zip(_COUNTS, weights):
        if not 0 <= weight < math.inf:
            raise ValueError(f"w_{name} must be finite and >= 0, got {weight}")
    if all(w == 0 for w in weights):
        raise ValueError("all four complexity weights are zero")
    return float(sum(w * c for w, c in zip(weights, counts)))


def _as_str(name, value) -> str:
    if not isinstance(value, str):
        raise _UsageError(f"{name} must be a string, got {value!r}")
    return value


def _as_int(name, value) -> int:
    try:
        # int() would truncate a JSON 2.5 and take a JSON true as 1.
        if isinstance(value, (bool, float)):
            raise ValueError
        return int(value)
    except (TypeError, ValueError):
        raise _UsageError(f"{name} must be an integer, got {value!r}") from None


def _as_float(name, value) -> float:
    try:
        if isinstance(value, bool):
            raise ValueError
        return float(value)
    except (TypeError, ValueError, OverflowError):  # float() of a JSON 10**400
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

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 via _UsageError, single line
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="exogait", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, positionals, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, nargs in positionals.items():
            p.add_argument(name, nargs=nargs)
        for dest, (_, _, option_help) in _OPTION_TABLE[command].items():
            p.add_argument("--" + dest.replace("_", "-"), help=option_help)
        p.add_argument("--config", help="JSON file mirroring the flags")
    return parser


def _resolve(args: argparse.Namespace) -> dict:
    """Merge CLI flags over --config values over defaults."""
    table = _OPTION_TABLE[args.command]
    config = {}
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            try:
                config = json.load(fh)
            # Malformed JSON, bytes that are not UTF-8, or an integer past
            # Python's digit limit for int().
            except ValueError as exc:
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
    """(trial, marker labels, analog labels) of the C3D or CSV trial at
    path: the labels are all the file's, and only the markers and analog
    channels labelled in columns are converted into the trial. The whole
    file is checked either way."""
    read = (read_c3d_with_labels if path.lower().endswith(".c3d")
            else read_csv_with_labels)
    return read(Path(path).read_bytes(), columns)


def _load_events(trial: Trial, events_path: str | None) -> list:
    """The trial's own events and those of the sidecar, sorted."""
    events = list(trial.events)
    if events_path is not None:
        events.extend(read_events_csv(
            Path(events_path).read_text(encoding="utf-8")))
    return sorted(events)


def _fmt(x) -> str:
    return repr(float(x))


def _write_numbers(path: str, columns: dict) -> None:
    """Write a CSV of columns, a dict of equal-length numpy arrays by
    header name. Each cell is the repr of the Python float or int that
    tolist gives, the text csv writes and _fmt gives, and none needs
    quoting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        n = len(next(iter(columns.values())))
        for lo in range(0, n, _TRACE_CHUNK):
            rows = zip(*(map(repr, column[lo:lo + _TRACE_CHUNK].tolist())
                         for column in columns.values()))
            fh.write("\n".join(map(",".join, rows)) + "\n")


def _emit_json(obj, path: str | None) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _cmd_inspect(values: dict) -> int:
    path = values["input"]
    # The labels come from the file's header or parameters; no marker or
    # analog data is converted.
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
    # The analog and the marker that each series name can select.
    columns = {name for name in (values["signal"], values["moment"])
               if name is not None}
    columns |= {marker_axis(name)[0] for name in columns} - {None}
    trial = _load_trial(values["input"], columns)[0]
    result = analyze_trial(
        trial, _load_events(trial, values["events"]), values["signal"],
        moment=values["moment"], sides=_SIDES[side_key],
        max_gap=values["max_gap"], target_mse=target_mse,
    )
    trial_id = values["trial_id"]
    if trial_id is None:
        trial_id = Path(values["input"]).stem

    if result.smoothing is not None:
        achieved, met = result.smoothing
        state = "met" if met else "not met"
        print(f"smoothing: residual MSE {_fmt(achieved)} (target {state})")
    kept = [entry for entry in result.strides if entry[2] is None]
    # Cells by feature column: a column the result lacks and a timing NaN
    # (no usable foot off) are empty, a NaN angle or moment feature is nan.
    cells = []
    for name in STRIDE_COLUMNS[4:]:
        column = result.features.get(name)
        if column is None:
            cells.append([""] * len(kept))
        else:
            cells.append(["" if math.isnan(x) and name in _TIMING_COLUMNS
                          else repr(x) for x in column.tolist()])
    with open(values["out_strides"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(STRIDE_COLUMNS)
        for (index, stride, _), *row in zip(kept, *cells):
            writer.writerow([trial_id, values["condition"],
                             stride.side.value, str(index), *row])

    curves = {"gc": np.arange(N_SAMPLES)}
    curves["angle_mean"], curves["angle_sd"] = result.angle_ensemble
    if result.moment_ensemble is not None:
        curves["moment_mean"], curves["moment_sd"] = result.moment_ensemble
    _write_numbers(values["out_ensemble"], curves)

    excluded = len(result.strides) - len(kept)
    print(f"strides: {len(kept)} kept, {excluded} excluded")
    print(f"wrote {values['out_strides']} and {values['out_ensemble']}")
    return 0


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
    bounds = []
    for feature in values["features"]:
        if values["bound"] is not None:
            bounds.append(values["bound"])
        elif feature in _ANGLE_FEATURES:
            bounds.append(values["angle_bound"])
        elif feature in _DURATION_FEATURES:
            bounds.append(values["duration_bound"])
        else:
            raise _UsageError(
                f"feature {feature!r} has no default bound; pass --bound"
            )
    results = compare_tables(
        values["inputs"], values["features"], bounds, baseline=baseline,
        treatment=treatment, alpha=values["alpha"],
    )
    report = {
        "schema_version": SCHEMA_VERSION,
        "baseline": baseline,
        "treatment": treatment,
        "alpha": values["alpha"],
        "features": [
            {
                "feature": result.feature,
                "bound": result.tost.bound,
                "n_strides": {"baseline": result.n_strides[0],
                              "treatment": result.n_strides[1]},
                "n_trials": {"baseline": result.n_trials[0],
                             "treatment": result.n_trials[1]},
                "lme": dataclasses.asdict(result.fit),
                "tost": dataclasses.asdict(result.tost),
                "equivalent": result.tost.equivalent,
            }
            for result in results
        ],
    }
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
        values["cycles"],
        values["seed"],
        stride_jitter=values["jitter"],
        constant_reference=values["constant_reference"],
    )
    if values["trace"] is not None:
        _write_numbers(values["trace"], {
            "time": result.time, "fsr": result.fsr, "gc": result.gc,
            "reference": result.reference, "measured": result.measured,
            "tension_true": result.tension_true, "cycle": result.cycle_index,
        })
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
    _require(values, *_COUNTS, "weights")
    try:
        index = complexity_index([values[name] for name in _COUNTS],
                                 values["weights"])
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    print(index)
    return 0


# Per-command help, positional arguments (name -> nargs) and handler, in
# the order the subcommands are listed.
_COMMANDS = {
    "inspect": ("print a trial summary", {"input": None}, _cmd_inspect),
    "analyze": ("per-stride features and ensemble curves", {"input": None},
                _cmd_analyze),
    "compare": ("equivalence verdict over strides CSVs", {"inputs": "+"},
                _cmd_compare),
    "simulate": ("closed-loop tension simulation", {}, _cmd_simulate),
    "complexity": ("weighted complexity index", {}, _cmd_complexity),
}

# Built once: parse_args leaves the parser unchanged, and building it costs
# milliseconds on every run() call.
_PARSER = _build_parser()


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
        return _COMMANDS[args.command][2](values)
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
