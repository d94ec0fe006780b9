"""End-to-end command-line tests: every subcommand, exit codes, config
merging, and byte-identical reruns."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exogait
from compare_oracle import oracle_cmd_compare
from exogait import cli
from exogait.c3d import write_c3d
from exogait.cli import STRIDE_COLUMNS, ComplexityInputs, complexity_index, run
from exogait.trial import MarkerTrajectory, Trial
from test_c3d import _param_fields


# --- fixtures -------------------------------------------------------------------


def _write_trial(path, n=321, rate=100.0):
    """Analog-only trial: 20 deg sine angle plus a scaled moment channel."""
    lines = ["time,analog:angle,analog:moment"]
    for i in range(n):
        t = i / rate
        angle = 20.0 * math.sin(2.0 * math.pi * t)
        lines.append(f"{t:.2f},{angle!r},{0.08 * angle!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_marker_trial(path, n=321, rate=100.0):
    """Marker-only trial with a fillable 2-frame gap and a 15-frame hole."""
    lines = ["time,ANK.x,ANK.y,ANK.z"]
    for i in range(n):
        t = i / rate
        z = 10.0 * math.sin(2.0 * math.pi * t)
        if 30 <= i <= 31 or 150 <= i <= 164:
            lines.append(f"{t:.2f},,,")
        else:
            lines.append(f"{t:.2f},{0.1 * i!r},{-0.2 * i!r},{z!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_events(path):
    rows = ["time,context,label"]
    for k in range(3):
        rows.append(f"{float(k)!r},Left,Foot Strike")
        rows.append(f"{k + 0.6!r},Left,Foot Off")
    rows.append("3.0,Left,Foot Strike")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _write_strides(path, rows):
    lines = ["trial_id,condition,rom,cycle_duration"]
    for trial_id, condition, rom in rows:
        lines.append(f"{trial_id},{condition},{rom!r},1.0")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


_TWO_STRIDES = "trial_id,condition,rom\nt1,NoExo,10.0\nt2,ExoOff,11.0\n"


def _error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("exogait: error: ")
    assert err.count("\n") == 1
    return err


# --- complexity -------------------------------------------------------------------


def test_complexity_single_weight(capsys):
    code = run(["complexity", "--limbs", "2", "--dof", "1", "--sensors", "4",
                "--actuators", "2", "--weights", "1,0,0,0"])
    assert code == 0
    assert capsys.readouterr().out == "2.0\n"


def test_complexity_equal_weights(capsys):
    code = run(["complexity", "--limbs", "2", "--dof", "1", "--sensors", "4",
                "--actuators", "2", "--weights", "0.25,0.25,0.25,0.25"])
    assert code == 0
    assert capsys.readouterr().out == "2.25\n"


def test_complexity_index_linear_in_weights():
    base = ComplexityInputs(2, 1, 4, 2, 0.5, 1.5, 0.25, 2.0)
    doubled = ComplexityInputs(2, 1, 4, 2, 1.0, 3.0, 0.5, 4.0)
    assert complexity_index(doubled) == pytest.approx(
        2.0 * complexity_index(base))


def test_complexity_all_zero_weights(capsys):
    code = run(["complexity", "--limbs", "2", "--dof", "1", "--sensors", "4",
                "--actuators", "2", "--weights", "0,0,0,0"])
    assert code == 2
    _error_line(capsys)


def test_complexity_missing_flag(capsys):
    code = run(["complexity", "--limbs", "2", "--dof", "1", "--sensors", "4",
                "--actuators", "2"])
    assert code == 1
    assert "--weights" in _error_line(capsys)


def test_complexity_wrong_weight_count(capsys):
    code = run(["complexity", "--limbs", "2", "--dof", "1", "--sensors", "4",
                "--actuators", "2", "--weights", "1,0"])
    assert code == 1
    _error_line(capsys)


_LAUNCHER_OK = ["complexity", "--limbs", "2", "--dof", "1", "--sensors", "4",
                "--actuators", "2", "--weights", "1,0,0,0"]
_LAUNCHER_USAGE_ERROR = ["complexity", "--dof", "1", "--sensors", "4",
                         "--actuators", "2", "--weights", "1,0,0,0"]


def _check_launcher(command, **kwargs):
    """Run a console-script launcher as a separate process: the exit code and
    the output must follow the README contract on success and on a usage
    error."""
    proc = subprocess.run(command + _LAUNCHER_OK,
                          capture_output=True, text=True, **kwargs)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2.0\n"

    proc = subprocess.run(command + _LAUNCHER_USAGE_ERROR,
                          capture_output=True, text=True, **kwargs)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("exogait: error: ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


def _child_env():
    """Environment for a child interpreter that imports the same exogait
    package as this test process."""
    package_root = str(Path(exogait.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env


def test_console_script_installed(tmp_path):
    """The `exogait` target declared in pyproject.toml, run the way pip's
    generated launcher runs it, in a child interpreter that imports the same
    exogait package as this test process; no install is needed."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["exogait"]
    module, _, attr = target.partition(":")
    launcher = (f"import sys; from {module} import {attr}; "
                f"sys.exit({attr}())")
    _check_launcher([sys.executable, "-c", launcher], env=_child_env(),
                    cwd=tmp_path)


@pytest.mark.parametrize("module", ["exogait", "exogait.cli"])
def test_python_m_entry_points(tmp_path, module):
    """`python -m exogait` and `python -m exogait.cli` run the command line
    (stdout, exit code and a single stderr line, so no runpy warning)."""
    _check_launcher([sys.executable, "-m", module], env=_child_env(),
                    cwd=tmp_path)


@pytest.mark.skipif(shutil.which("exogait") is None,
                    reason="exogait console script not installed")
def test_console_script_on_path(tmp_path):
    _check_launcher(["exogait"], cwd=tmp_path)


# --- inspect ---------------------------------------------------------------------


def test_inspect_summary(tmp_path, capsys):
    trial = tmp_path / "walk01.csv"
    events = tmp_path / "walk01_events.csv"
    _write_trial(trial)
    _write_events(events)
    code = run(["inspect", str(trial), "--events", str(events)])
    assert code == 0
    out = capsys.readouterr().out
    assert "frames: 1..321" in out
    assert "analog: 2 channels" in out
    assert "left foot_strike 4" in out
    assert "left foot_off 3" in out


def test_inspect_missing_file(tmp_path, capsys):
    code = run(["inspect", str(tmp_path / "nope.csv")])
    assert code == 2
    _error_line(capsys)


@pytest.mark.parametrize("rows", [
    "-inf,1\n0.0,2\n",
    "0.0,1\n0.01," + "1" * (csv.field_size_limit() + 1) + "\n",
], ids=["non_finite_time", "oversized_field"])
def test_inspect_malformed_csv_prints_one_line(tmp_path, rows):
    """A child process, so that a numpy warning or a traceback would show
    on stderr."""
    trial = tmp_path / "walk.csv"
    trial.write_text("time,analog:a\n" + rows, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "exogait", "inspect", str(trial)],
        capture_output=True, text=True, env=_child_env(), cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("exogait: error: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("field, code, lines", [
    ("POINT:RATE", 2, 1),
    ("POINT:DATA_START", 0, 0),
], ids=["point_rate", "coordinate"])
def test_inspect_signaling_nan_c3d(tmp_path, field, code, lines):
    """A signaling NaN in a float parameter or in the point data: at most
    one `exogait: error:` line and no numpy cast warning, in a child
    process so that the warning would show on stderr."""
    trial = Trial(markers=[MarkerTrajectory("ANK", np.ones((3, 3)),
                                            np.ones(3, bool))],
                  analogs=[], events=[], point_rate=100.0, analog_rate=100.0,
                  first_frame=1, last_frame=3)
    data = bytearray(write_c3d(trial))
    _, pos, _ = _param_fields(data)[field]
    if field == "POINT:DATA_START":
        # the first coordinate of the first frame
        pos = 512 * (struct.unpack_from("<h", data, pos)[0] - 1)
    data[pos : pos + 4] = bytes.fromhex("0100807f")
    path = tmp_path / "walk.c3d"
    path.write_bytes(bytes(data))
    proc = subprocess.run(
        [sys.executable, "-m", "exogait", "inspect", str(path)],
        capture_output=True, text=True, env=_child_env(), cwd=tmp_path)
    assert proc.returncode == code
    assert proc.stderr.count("\n") == lines
    assert proc.stderr.count("exogait: error: ") == lines


# --- analyze ---------------------------------------------------------------------


def _analyze(trial, events, out_dir, trial_id, condition, extra=()):
    strides = out_dir / f"{trial_id}_strides.csv"
    ens = out_dir / f"{trial_id}_ensemble.csv"
    argv = ["analyze", str(trial), "--events", str(events),
            "--signal", "angle", "--moment", "moment",
            "--trial-id", trial_id, "--condition", condition,
            "--out-strides", str(strides), "--out-ensemble", str(ens),
            *extra]
    return run(argv), strides, ens


def test_analyze_writes_stride_and_ensemble_csv(tmp_path, capsys):
    trial = tmp_path / "walk01.csv"
    events = tmp_path / "events.csv"
    _write_trial(trial)
    _write_events(events)
    code, strides, ens = _analyze(trial, events, tmp_path, "t1", "NoExo")
    assert code == 0
    out = capsys.readouterr().out
    assert "strides: 3 kept, 0 excluded" in out

    rows = strides.read_text(encoding="utf-8").splitlines()
    assert rows[0] == ",".join(STRIDE_COLUMNS)
    assert len(rows) == 4  # header + one row per stride
    cells = dict(zip(STRIDE_COLUMNS, rows[1].split(",")))
    assert cells["trial_id"] == "t1"
    assert cells["condition"] == "NoExo"
    assert cells["side"] == "left"
    assert float(cells["rom"]) > 0.0
    assert float(cells["cycle_duration"]) == pytest.approx(1.0)
    assert float(cells["stance_pct"]) == pytest.approx(60.0)
    assert float(cells["peak_plantarflexion_moment"]) != 0.0

    ens_rows = ens.read_text(encoding="utf-8").splitlines()
    assert ens_rows[0] == "gc,angle_mean,angle_sd,moment_mean,moment_sd"
    assert len(ens_rows) == 102  # header + 101 cycle points
    assert ens_rows[1].split(",")[0] == "0"
    assert ens_rows[-1].split(",")[0] == "100"


def test_analyze_rerun_is_byte_identical(tmp_path, capsys):
    trial = tmp_path / "walk01.csv"
    events = tmp_path / "events.csv"
    _write_trial(trial)
    _write_events(events)
    _, strides_a, ens_a = _analyze(trial, events, tmp_path, "a", "NoExo")
    first = (strides_a.read_bytes(), ens_a.read_bytes())
    _, strides_b, ens_b = _analyze(trial, events, tmp_path, "a", "NoExo")
    assert (strides_b.read_bytes(), ens_b.read_bytes()) == first
    capsys.readouterr()


def test_analyze_marker_signal_excludes_gapped_stride(tmp_path, capsys):
    trial = tmp_path / "marker.csv"
    events = tmp_path / "events.csv"
    _write_marker_trial(trial)
    _write_events(events)
    strides = tmp_path / "strides.csv"
    ens = tmp_path / "ensemble.csv"
    code = run(["analyze", str(trial), "--events", str(events),
                "--signal", "ANK.z", "--target-mse", "0",
                "--out-strides", str(strides), "--out-ensemble", str(ens)])
    assert code == 0
    out = capsys.readouterr().out
    # The 15-frame hole exceeds the default 10-frame fill limit, so the
    # middle stride is dropped; the 2-frame gap is filled and stride 1 kept.
    assert "strides: 2 kept, 1 excluded" in out
    assert len(strides.read_text(encoding="utf-8").splitlines()) == 3


def test_analyze_unfilled_gap_breaks_smoothing(tmp_path, capsys):
    trial = tmp_path / "marker.csv"
    events = tmp_path / "events.csv"
    _write_marker_trial(trial)
    _write_events(events)
    code = run(["analyze", str(trial), "--events", str(events),
                "--signal", "ANK.z",
                "--out-strides", str(tmp_path / "s.csv"),
                "--out-ensemble", str(tmp_path / "e.csv")])
    assert code == 2
    _error_line(capsys)


def test_analyze_unknown_signal(tmp_path, capsys):
    trial = tmp_path / "walk01.csv"
    events = tmp_path / "events.csv"
    _write_trial(trial)
    _write_events(events)
    code = run(["analyze", str(trial), "--events", str(events),
                "--signal", "bogus",
                "--out-strides", str(tmp_path / "s.csv"),
                "--out-ensemble", str(tmp_path / "e.csv")])
    assert code == 2
    _error_line(capsys)


def test_analyze_requires_signal(tmp_path, capsys):
    trial = tmp_path / "walk01.csv"
    _write_trial(trial)
    code = run(["analyze", str(trial)])
    assert code == 1
    assert "--signal" in _error_line(capsys)


def test_analyze_bad_side(tmp_path, capsys):
    trial = tmp_path / "walk01.csv"
    _write_trial(trial)
    code = run(["analyze", str(trial), "--signal", "angle",
                "--side", "upward"])
    assert code == 1
    _error_line(capsys)


# --- compare ---------------------------------------------------------------------


def test_compare_end_to_end_equivalent(tmp_path, capsys):
    trial = tmp_path / "walk01.csv"
    events = tmp_path / "events.csv"
    _write_trial(trial)
    _write_events(events)
    inputs = []
    for trial_id, condition in [("t1", "NoExo"), ("t2", "NoExo"),
                                ("t3", "ExoOff"), ("t4", "ExoOff")]:
        code, strides, _ = _analyze(trial, events, tmp_path, trial_id,
                                    condition)
        assert code == 0
        inputs.append(str(strides))
    capsys.readouterr()

    verdict = tmp_path / "verdict.json"
    code = run(["compare", *inputs, "--features", "rom,cycle_duration",
                "--out", str(verdict)])
    assert code == 0
    report = json.loads(verdict.read_text(encoding="utf-8"))
    assert report["schema_version"] == 1
    assert report["baseline"] == "NoExo"
    assert report["treatment"] == "ExoOff"
    assert [f["feature"] for f in report["features"]] == [
        "rom", "cycle_duration"]
    for block in report["features"]:
        assert block["equivalent"] is True
        assert block["n_trials"] == {"baseline": 2, "treatment": 2}
        assert block["n_strides"] == {"baseline": 6, "treatment": 6}
        assert "beta1" in block["lme"]
        assert "p_upper" in block["tost"]
    assert report["features"][0]["bound"] == 2.0
    assert report["features"][1]["bound"] == 0.05


def test_compare_large_difference_not_equivalent(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    _write_strides(a, [("t1", "NoExo", 10.0), ("t1", "NoExo", 10.2),
                       ("t2", "NoExo", 10.1), ("t2", "NoExo", 10.3)])
    _write_strides(b, [("t3", "ExoOff", 20.0), ("t3", "ExoOff", 20.2),
                       ("t4", "ExoOff", 20.1), ("t4", "ExoOff", 20.3)])
    code = run(["compare", str(a), str(b), "--features", "rom"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    block = report["features"][0]
    assert block["equivalent"] is False
    assert block["lme"]["beta1"] == pytest.approx(10.0, abs=0.2)


def test_compare_bound_override(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    _write_strides(a, [("t1", "NoExo", 10.0), ("t2", "NoExo", 10.2)])
    _write_strides(b, [("t3", "ExoOff", 10.1), ("t4", "ExoOff", 10.3)])
    code = run(["compare", str(a), str(b), "--features", "rom",
                "--bound", "5.0"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["features"][0]["bound"] == 5.0


def test_compare_unknown_feature_needs_bound(tmp_path, capsys):
    a = tmp_path / "a.csv"
    _write_strides(a, [("t1", "NoExo", 10.0), ("t2", "ExoOff", 10.1)])
    code = run(["compare", str(a), "--features", "wobble"])
    assert code == 1
    assert "--bound" in _error_line(capsys)


def test_compare_non_numeric_cell(tmp_path, capsys):
    a = tmp_path / "a.csv"
    a.write_text(
        "trial_id,condition,rom\nt1,NoExo,abc\nt2,ExoOff,10.0\n",
        encoding="utf-8",
    )
    code = run(["compare", str(a), "--features", "rom"])
    assert code == 2
    _error_line(capsys)


def test_compare_missing_columns(tmp_path, capsys):
    a = tmp_path / "a.csv"
    a.write_text("foo,bar\n1,2\n", encoding="utf-8")
    code = run(["compare", str(a), "--features", "rom"])
    assert code == 2
    _error_line(capsys)


def test_compare_condition_labels_must_differ(tmp_path, capsys):
    a = tmp_path / "a.csv"
    _write_strides(a, [("t1", "X", 10.0), ("t2", "X", 10.1)])
    code = run(["compare", str(a), "--baseline", "X", "--treatment", "X"])
    assert code == 2
    assert "condition labels must be distinct" in _error_line(capsys)


def test_compare_oversized_field(tmp_path, capsys):
    a = tmp_path / "a.csv"
    big = "1" * (csv.field_size_limit() + 1)
    a.write_text(f"trial_id,condition,rom\nt1,NoExo,{big}\n",
                 encoding="utf-8")
    code = run(["compare", str(a), "--features", "rom"])
    assert code == 2
    assert "line 2: field larger than field limit" in _error_line(capsys)


# "None" is also the trial of a row too short to hold its trial_id.
_TRIAL_CONDITION = {"t1": "NoExo", "t2": "NoExo", "t3": "NoExo", "": "NoExo",
                    "t4": "ExoOff", "t5": "ExoOff", "t6": "ExoOff",
                    "None": "ExoOff"}


@st.composite
def _feature_cell(draw, dirty):
    kinds = ["num"] * 12 + ["big", "empty", "space", "padded", "spelled"]
    if dirty:
        kinds += ["bad", "odd"]
    kind = draw(st.sampled_from(kinds))
    if kind == "num":
        return repr(draw(st.floats(-60.0, 60.0, allow_subnormal=False)))
    if kind == "big":
        return repr(draw(st.sampled_from([1e200, -1e200, 1e308, 1e-300])))
    if kind == "empty":
        return ""
    if kind == "space":
        return draw(st.sampled_from([" ", "\t", "  \x1f"]))
    if kind == "padded":
        return f" \x1c{draw(st.integers(-20, 20))}.5\n"
    if kind == "spelled":
        return draw(st.sampled_from(["1_000", "-0.0", "\u0661\u0662"]))
    if kind == "bad":
        return draw(st.sampled_from(["abc", "1.2.3", "--", "1,5"]))
    return draw(st.sampled_from(["inf", "-inf", "nan"]))


@st.composite
def _strides_file(draw):
    """One strides CSV as text: shuffled, repeated or missing columns, short
    and long rows, blank lines, unknown labels and unparseable cells."""
    header = draw(st.permutations(
        ["trial_id", "condition", "rom", "cycle_duration", "side"]))
    header = list(header)
    if draw(st.integers(0, 3)) == 1:
        header.remove(draw(st.sampled_from(["rom", "cycle_duration"])))
    for _ in range(draw(st.integers(0, 2))):
        header.insert(draw(st.integers(0, len(header))),
                      draw(st.sampled_from(header)))
    if draw(st.integers(0, 39)) == 20:
        header.remove(draw(st.sampled_from(["trial_id", "condition"])))
    lines = [header]
    trials = draw(st.lists(st.sampled_from(sorted(_TRIAL_CONDITION)),
                           min_size=3, max_size=6, unique=True))
    dirty = draw(st.integers(0, 3)) == 2
    n_rows = draw(st.integers(0, 40))
    flipped = draw(st.integers(0, 9 * n_rows))  # a trial's condition flips
    for r in range(n_rows):
        trial_id = draw(st.sampled_from(trials))
        condition = _TRIAL_CONDITION[trial_id]
        if r == flipped:
            condition = "ExoOff" if condition == "NoExo" else "NoExo"
        elif draw(st.integers(0, 29)) == 15:
            condition = draw(st.sampled_from(["Other", "", " NoExo"]))
        row = []
        for name in header:
            if name == "trial_id":
                row.append(trial_id)
            elif name == "condition":
                row.append(condition)
            elif name == "side":
                row.append(draw(st.sampled_from(["left", "right"])))
            else:
                row.append(draw(_feature_cell(dirty)))
        cut = draw(st.integers(0, 24))
        if cut == 12:
            row = row[: draw(st.integers(0, len(row)))]
        elif cut == 13:
            row += ["9.5"] * draw(st.integers(1, 2))
        lines.append(row)
        if draw(st.integers(0, 9)) == 5:
            lines.append([])
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in lines:
        if row:
            writer.writerow(row)
        else:
            out.write("\n")
    return out.getvalue()


def _run_captured(argv):
    """Exit code, stdout, stderr and warnings of one cli.run call."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = run(argv)
    return code, out.getvalue(), err.getvalue(), \
        [(w.category, str(w.message)) for w in caught]


@settings(max_examples=300, deadline=None)
@given(
    files=st.lists(_strides_file(), min_size=1, max_size=3),
    features=st.lists(
        st.sampled_from(["rom"] * 5 + ["cycle_duration"] * 4
                        + ["condition", "wobble"]),
        min_size=1, max_size=3),
    bound=st.sampled_from([None, None, "1.5"]),
    labels=st.sampled_from([(), (), ("--baseline", "ExoOff",
                                     "--treatment", "NoExo"),
                            ("--treatment", "Other"), ("--treatment", "")]),
    to_stdout=st.booleans(),
)
# Two strides in all: the fit has no residual degree of freedom.
@example(files=[_TWO_STRIDES], features=["rom"], bound=None, labels=(),
         to_stdout=True)
def test_compare_matches_oracle(files, features, bound, labels, to_stdout):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, text in enumerate(files):
            path = Path(tmp) / f"strides{k}.csv"
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        argv = ["compare", *paths, "--features", ",".join(features), *labels]
        if bound is not None:
            argv += ["--bound", bound]
        results = []
        for name, command in (("cli", cli._cmd_compare),
                              ("oracle", oracle_cmd_compare)):
            out = Path(tmp) / f"{name}.json"
            extra = [] if to_stdout else ["--out", str(out)]
            with mock.patch.dict(cli._DISPATCH, {"compare": command}):
                result = _run_captured(argv + extra)
            written = out.read_bytes() if out.exists() else None
            results.append((result, written))
    assert results[0] == results[1]


# --- simulate --------------------------------------------------------------------


def test_simulate_summary_and_trace(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code = run(["simulate", "--cycles", "2", "--seed", "3",
                "--trace", str(trace)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["schema_version"] == 1
    assert summary["n_ticks"] == 980
    assert len(summary["cycles"]) == 2
    assert summary["rms_error"] >= 0.0

    rows = trace.read_text(encoding="utf-8").splitlines()
    assert rows[0] == "time,fsr,gc,reference,measured,tension_true,cycle"
    assert len(rows) == 981
    first = rows[1].split(",")
    assert len(first) == 7
    [float(c) for c in first]
    assert {r.rsplit(",", 1)[1] for r in rows[1:]} == {"0", "1"}


def test_simulate_deterministic_outputs(tmp_path, capsys):
    trace_a = tmp_path / "a.csv"
    trace_b = tmp_path / "b.csv"
    assert run(["simulate", "--cycles", "2", "--seed", "9",
                "--jitter", "0.05", "--trace", str(trace_a)]) == 0
    out_a = capsys.readouterr().out
    assert run(["simulate", "--cycles", "2", "--seed", "9",
                "--jitter", "0.05", "--trace", str(trace_b)]) == 0
    out_b = capsys.readouterr().out
    assert out_a == out_b
    assert trace_a.read_bytes() == trace_b.read_bytes()


# SHA-256 of stdout and of the --trace file, recorded before the simulator
# loop moved onto plain floats; the kernel and the trace writer must keep
# both byte-identical.
_SIMULATE_GOLDEN = {
    ("--seed", "0"): (
        "7bb04bdfa0d012c4e811f5e1b743401b6452bda546957f85954829b63c56921b",
        "94320505710ae28787c73526c8a2e8d744649737a0ee1ba18cdb44d5301092f1",
    ),
    ("--seed", "1", "--jitter", "0.05"): (
        "bd25b90364ef961a51d8470191a8f84825d3af120281ba6b723449141515d3ba",
        "b08963d6ec334fda1227d1b7eb51791b3281114481b4052cbbdb5f020630f0f3",
    ),
}


@pytest.mark.parametrize("extra", list(_SIMULATE_GOLDEN))
def test_simulate_golden_digests(extra, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert run(["simulate", "--cycles", "3", *extra,
                "--trace", str(trace)]) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    assert (hashlib.sha256(stdout).hexdigest(),
            hashlib.sha256(trace.read_bytes()).hexdigest()) \
        == _SIMULATE_GOLDEN[extra]


def test_simulate_plant_override(capsys):
    code = run(["simulate", "--cycles", "1",
                "--plant", "loadcell_noise_sd=0,pretension=6"])
    assert code == 0
    json.loads(capsys.readouterr().out)


def test_simulate_unknown_plant_parameter(capsys):
    code = run(["simulate", "--cycles", "1", "--plant", "bogus=1"])
    assert code == 1
    assert "bogus" in _error_line(capsys)


def test_simulate_bad_gain_count(capsys):
    code = run(["simulate", "--gains", "1,2"])
    assert code == 1
    _error_line(capsys)


def test_simulate_invalid_profile(capsys):
    # onset after peak is a usage error, not a crash
    code = run(["simulate", "--profile", "50,40,60,10"])
    assert code == 1
    _error_line(capsys)


def test_simulate_rejects_bad_cycles_and_jitter(capsys):
    assert run(["simulate", "--cycles", "0"]) == 1
    _error_line(capsys)
    assert run(["simulate", "--jitter", "1.5"]) == 1
    _error_line(capsys)


@pytest.mark.parametrize("argv, code", [
    (["simulate", "--cycles", "1", "--plant", "control_rate=inf"], 1),
    (["simulate", "--cycles", "1", "--plant", "control_rate=0.5"], 2),
    (["compare", "two_strides.csv", "--features", "rom"], 2),
], ids=["control_rate_inf", "zero_ticks", "two_strides"])
def test_degenerate_run_is_one_error_line(argv, code, tmp_path, monkeypatch,
                                          capsys):
    monkeypatch.chdir(tmp_path)
    Path("two_strides.csv").write_text(_TWO_STRIDES, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == code
    _error_line(capsys)


# --- config file -----------------------------------------------------------------


def test_config_supplies_missing_flags(tmp_path, capsys):
    cfg = tmp_path / "cx.json"
    cfg.write_text(json.dumps({
        "limbs": 2, "dof": 1, "sensors": 4, "actuators": 2,
        "weights": [1, 0, 0, 0],
    }), encoding="utf-8")
    code = run(["complexity", "--config", str(cfg)])
    assert code == 0
    assert capsys.readouterr().out == "2.0\n"


def test_cli_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "cx.json"
    cfg.write_text(json.dumps({
        "limbs": 2, "dof": 1, "sensors": 4, "actuators": 2,
        "weights": [1, 0, 0, 0],
    }), encoding="utf-8")
    code = run(["complexity", "--config", str(cfg), "--limbs", "4"])
    assert code == 0
    assert capsys.readouterr().out == "4.0\n"


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cx.json"
    cfg.write_text(json.dumps({"limbs": 2, "bogus": 1}), encoding="utf-8")
    code = run(["complexity", "--config", str(cfg)])
    assert code == 1
    assert "bogus" in _error_line(capsys)


def test_config_invalid_json(tmp_path, capsys):
    cfg = tmp_path / "cx.json"
    cfg.write_text("{not json", encoding="utf-8")
    code = run(["complexity", "--config", str(cfg)])
    assert code == 1
    _error_line(capsys)


def test_config_for_simulate(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "cycles": 2, "seed": 5, "plant": {"loadcell_noise_sd": 0.0},
    }), encoding="utf-8")
    code = run(["simulate", "--config", str(cfg)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_ticks"] == 980


def test_unknown_subcommand(capsys):
    assert run(["frobnicate"]) == 1
    _error_line(capsys)
