"""Output checks for one CLI operation, run outside the timed region.

Each check returns (problems, counts): a list of messages, empty when the
output is correct, and the counts the operation reported (strides kept and
excluded, ticks) for the per-layer figures. Only the standard library is
used, so the worker can import this before exogait without adding to the
measured set-up time.
"""

from __future__ import annotations

import json
import math
import re

N_ENSEMBLE_ROWS = 101  # GC% 0..100

_FRAMES = re.compile(r"^frames: (\d+)\.\.(\d+) \((\d+) at ", re.M)
_MARKERS = re.compile(r"^markers: (\d+) ", re.M)
_STRIDES = re.compile(r"^strides: (\d+) kept, (\d+) excluded$", re.M)


def _line_count(path):
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh)


def _inspect(op, stdout):
    expect = op["expect"]
    frames = _FRAMES.search(stdout)
    markers = _MARKERS.search(stdout)
    problems = []
    if frames is None or int(frames.group(3)) != expect["frames"]:
        problems.append(f"inspect reports {frames and frames.group(3)} "
                        f"frames, fixture has {expect['frames']}")
    if markers is None or int(markers.group(1)) != expect["markers"]:
        problems.append(f"inspect reports {markers and markers.group(1)} "
                        f"markers, fixture has {expect['markers']}")
    return problems, {}


def _analyze(op, stdout):
    match = _STRIDES.search(stdout)
    if match is None:
        return ["analyze printed no stride summary"], {}
    kept, excluded = int(match.group(1)), int(match.group(2))
    problems = []
    if kept + excluded != op["expect"]["strides"]:
        problems.append(f"{kept} kept + {excluded} excluded strides, events "
                        f"hold {op['expect']['strides']}")
    strides_csv, ensemble_csv = op["outputs"]
    if _line_count(strides_csv) != kept + 1:
        problems.append(f"{strides_csv} does not hold {kept} stride rows")
    if _line_count(ensemble_csv) != N_ENSEMBLE_ROWS + 1:
        problems.append(f"{ensemble_csv} does not hold {N_ENSEMBLE_ROWS} rows")
    return problems, {"strides_kept": kept, "strides_excluded": excluded}


def _compare(op, stdout):
    with open(op["outputs"][0], encoding="utf-8") as fh:
        verdict = json.load(fh)
    expect = op["expect"]
    entries = verdict.get("features", [])
    names = [e.get("feature") for e in entries]
    if names != expect["features"]:
        return [f"verdict features {names}, requested {expect['features']}"], {}
    problems = []
    for entry in entries:
        if not isinstance(entry.get("equivalent"), bool):
            problems.append(f"{entry['feature']}: no equivalence verdict")
        n_strides = sum(entry["n_strides"].values())
        want = expect.get("n_strides", {}).get(entry["feature"])
        if want is not None and n_strides != want:
            problems.append(f"{entry['feature']}: {n_strides} strides used, "
                            f"table has {want}")
        n_trials = sum(entry["n_trials"].values())
        if "n_trials" in expect and n_trials != expect["n_trials"]:
            problems.append(f"{entry['feature']}: {n_trials} trials used, "
                            f"table has {expect['n_trials']}")
    return problems, {}


def _simulate(op, stdout):
    summary = json.loads(stdout)
    expect = op["expect"]
    problems = []
    if summary.get("n_ticks") != expect["n_ticks"]:
        problems.append(f"n_ticks {summary.get('n_ticks')}, expected "
                        f"{expect['n_ticks']}")
    rms = summary.get("rms_error")
    if not isinstance(rms, (int, float)) or not math.isfinite(rms):
        problems.append(f"rms_error {rms!r} is not finite")
    if expect["trace"] and _line_count(op["outputs"][0]) != expect["n_ticks"] + 1:
        problems.append("trace CSV does not hold one row per tick")
    return problems, {"ticks": summary.get("n_ticks", 0)}


_CHECKS = {"inspect": _inspect, "analyze": _analyze, "compare": _compare,
           "simulate": _simulate}


def check(op, code, stdout, stderr):
    """Check one finished operation; see the module docstring."""
    if code != 0:
        lines = stderr.splitlines()
        if len(lines) != 1 or not lines[0].startswith("exogait: error: "):
            return [f"exit {code} without a single 'exogait: error:' line: "
                    f"{stderr!r}"], {}
        if not op.get("may_fail"):
            return [f"unexpected failure: {lines[0]}"], {}
        return [], {}
    try:
        return _CHECKS[op["kind"]](op, stdout)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"{op['kind']} output unreadable: {exc!r}"], {}
