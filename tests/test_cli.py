"""End-to-end command-line tests: every subcommand, exit codes, config
merging, and byte-identical reruns."""

import codecs
import contextlib
import csv
import hashlib
import io
import itertools
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
from analyze_oracle import oracle_cmd_analyze
from compare_oracle import oracle_cmd_compare
from exogait import cli, csvio
from exogait.c3d import write_c3d
from exogait.cli import STRIDE_COLUMNS, complexity_index, run
from exogait.trial import EventKind, GaitEvent, MarkerTrajectory, Side, Trial
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
    counts = (2, 1, 4, 2)
    base = complexity_index(counts, (0.5, 1.5, 0.25, 2.0))
    doubled = complexity_index(counts, (1.0, 3.0, 0.5, 4.0))
    assert doubled == pytest.approx(2.0 * base)


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


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("weights, message", [
    ((math.nan, 1, 1, 1), "w_limbs must be finite and >= 0, got nan"),
    ((1, math.inf, 1, 1), "w_dof must be finite and >= 0, got inf"),
    ((1, 1, -math.inf, 1), "w_sensors must be finite and >= 0, got -inf"),
    ((1, 1, 1, -0.5), "w_actuators must be finite and >= 0, got -0.5"),
])
def test_complexity_weight_must_be_finite_and_non_negative(
        weights, message, source, tmp_path, capsys):
    # A nan weight used to print nan and an inf weight inf, with exit 0.
    argv = ["complexity", "--limbs", "2", "--dof", "1", "--sensors", "4",
            "--actuators", "2"]
    if source == "flag":
        argv += ["--weights", ",".join(str(float(w)) for w in weights)]
    else:
        config = tmp_path / "cx.json"
        config.write_text(json.dumps({"weights": weights}), encoding="utf-8")
        argv += ["--config", str(config)]
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"exogait: error: {message}\n")


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


# A child interpreter that runs the command line on its arguments (none:
# only the import) and prints the scipy modules then loaded as its last line.
# Every one of them must be a module loaded from its file: no bare stand-in
# for a scipy package may be left behind.
_SCIPY_MODULES = (
    "import json, sys\n"
    "from exogait.cli import run\n"
    "code = run(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
    "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
    "stand_ins = [m for m in loaded if not getattr(sys.modules[m],\n"
    "                                              '__file__', None)]\n"
    "assert stand_ins == [], stand_ins\n"
    "print(json.dumps(sorted(loaded)))\n"
    "sys.exit(code)\n"
)
# The same, where an extension module found by a FileFinder made after
# exogait's import fails to load, so that the LAPACK routines and the
# Student-t tail have to come from imports of scipy.linalg and
# scipy.special.
_SCIPY_MODULES_NO_FILE_LOAD = _SCIPY_MODULES.replace(
    "from exogait.cli import run\n",
    "from exogait.cli import run\n"
    "import importlib.abc\n"  # registers the real loader classes first
    "from importlib import machinery\n"
    "class Unloadable(machinery.ExtensionFileLoader):\n"
    "    def create_module(self, spec):\n"
    "        raise ImportError(f'cannot load {spec.origin}')\n"
    "machinery.ExtensionFileLoader = Unloadable\n",
)


def _scipy_after(argv, cwd, script=_SCIPY_MODULES) -> set[str]:
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=_child_env(),
                          cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_inspect_and_simulate_load_no_scipy(tmp_path):
    """Importing the command line, --help, inspect (CSV and C3D) and
    simulate load no part of scipy, whose import would take most of their
    run time."""
    _write_trial(tmp_path / "walk.csv")
    trial = Trial(markers=[MarkerTrajectory("ANK", np.ones((3, 3)),
                                            np.ones(3, bool))],
                  analogs=[], events=[], point_rate=100.0, analog_rate=100.0,
                  first_frame=1, last_frame=3)
    (tmp_path / "walk.c3d").write_bytes(write_c3d(trial))
    for argv in ([], ["--help"], ["inspect", "walk.csv"],
                 ["inspect", "walk.c3d"], ["simulate", "--cycles", "1"]):
        assert _scipy_after(argv, tmp_path) == set(), argv


def _analyze_marker_argv(tmp_path, name):
    """analyze on a marker trial that needs both a gap fill and smoothing,
    writing name_s.csv and name_e.csv."""
    _write_marker_trial(tmp_path / "marker.csv")
    _write_events(tmp_path / "events.csv")
    return ["analyze", "marker.csv", "--events", "events.csv",
            "--signal", "ANK.z", "--max-gap", "20", "--condition", "NoExo",
            "--out-strides", f"{name}_s.csv", "--out-ensemble", f"{name}_e.csv"]


def test_analyze_and_compare_load_no_interpolate(tmp_path):
    """A marker signal is gap-filled and smoothed through scipy's LAPACK
    extension alone, loaded without the scipy.linalg package or scipy's
    helpers, and compare takes the Student-t tail from scipy's ufunc
    extension, loaded with its sibling extensions but without the
    scipy.special package, so scipy.stats, scipy.linalg and
    scipy.interpolate stay unloaded too."""
    loaded = _scipy_after(_analyze_marker_argv(tmp_path, "a"), tmp_path)
    assert "scipy.linalg" not in loaded
    assert "scipy._lib" not in loaded
    assert "scipy.interpolate" not in loaded
    loaded = _scipy_after(_compare_argv(tmp_path, "c"), tmp_path)
    # _ufuncs itself is dropped from sys.modules after its load (see
    # preprocess.scipy_extension); the extensions it imports stay.
    assert {"scipy.special._ufuncs_cxx",
            "scipy.special._special_ufuncs"} <= loaded
    for package in ("scipy.special", "scipy.special._basic", "scipy.stats",
                    "scipy.linalg", "scipy.interpolate"):
        assert package not in loaded, package


def test_analyze_without_the_lapack_file_load_writes_the_same_bytes(tmp_path):
    """When scipy's LAPACK extension cannot be loaded from its file, analyze
    takes the routines from scipy.linalg.lapack, with the same output."""
    outputs = {}
    for name, script in (("file", _SCIPY_MODULES),
                         ("package", _SCIPY_MODULES_NO_FILE_LOAD)):
        loaded = _scipy_after(_analyze_marker_argv(tmp_path, name), tmp_path,
                              script)
        assert ("scipy.linalg" in loaded) == (name == "package")
        outputs[name] = [(tmp_path / f"{name}_{kind}.csv").read_bytes()
                         for kind in "se"]
    assert outputs["file"] == outputs["package"]


# Runs analyze before or after importing scipy.linalg.lapack, then checks
# that the routines analyze used are scipy's own and that the package's
# _flapack attribute and module entry resolve to the same module.
_LAPACK_ORDER = (
    "import sys\n"
    "from exogait.cli import run\n"
    "from exogait.preprocess import scipy_extension\n"
    "if sys.argv[1] == 'scipy-first':\n"
    "    import scipy.linalg.lapack\n"
    "assert run(sys.argv[2:]) == 0\n"
    "import scipy.linalg.lapack\n"
    "from scipy.linalg import _flapack\n"
    "flapack = sys.modules['scipy.linalg._flapack']\n"
    "assert _flapack is flapack is scipy.linalg._flapack\n"
    "for name in ('dgtsv', 'dpbtrf', 'dpbtrs'):\n"
    "    routine = getattr(scipy_extension('linalg', '_flapack'), name)\n"
    "    assert routine is getattr(scipy.linalg.lapack, name), name\n"
    "    assert routine is getattr(flapack, name), name\n"
)


@pytest.mark.parametrize("order", ["analyze-first", "scipy-first"])
def test_lapack_routines_are_scipys_in_either_import_order(order, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _LAPACK_ORDER, order,
         *_analyze_marker_argv(tmp_path, "a")],
        capture_output=True, text=True, env=_child_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def _compare_argv(tmp_path, name):
    """compare on a four-trial strides table, writing name_v.json."""
    _write_strides(tmp_path / "s.csv",
                   [("t1", "NoExo", 30.0), ("t2", "NoExo", 31.0),
                    ("t3", "ExoOff", 30.5), ("t4", "ExoOff", 31.5)])
    return ["compare", "s.csv", "--features", "rom",
            "--out", f"{name}_v.json"]


# Runs compare before or after importing scipy.special, then checks that the
# Student-t tail compare used is scipy's own and that the package's _ufuncs
# attribute is the extension module.
_UFUNCS_ORDER = (
    "import sys\n"
    "from exogait.cli import run\n"
    "from exogait.preprocess import scipy_extension\n"
    "if sys.argv[1] == 'scipy-first':\n"
    "    import scipy.special\n"
    "assert run(sys.argv[2:]) == 0\n"
    "import scipy.special\n"
    "ufuncs = sys.modules['scipy.special._ufuncs']\n"
    "assert scipy.special._ufuncs is ufuncs\n"
    "stdtr = scipy_extension('special', '_ufuncs').stdtr\n"
    "assert stdtr is ufuncs.stdtr is scipy.special.stdtr\n"
)


@pytest.mark.parametrize("order", ["compare-first", "scipy-first"])
def test_student_t_tail_is_scipys_in_either_import_order(order, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _UFUNCS_ORDER, order,
         *_compare_argv(tmp_path, "c")],
        capture_output=True, text=True, env=_child_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_compare_without_the_ufunc_file_load_writes_the_same_bytes(tmp_path):
    """When scipy's ufunc extension cannot be loaded from its file, compare
    takes the Student-t tail from scipy.special, with the same verdict, and
    leaves no stand-in for the package behind."""
    outputs = {}
    for name, script in (("file", _SCIPY_MODULES),
                         ("package", _SCIPY_MODULES_NO_FILE_LOAD)):
        loaded = _scipy_after(_compare_argv(tmp_path, name), tmp_path, script)
        assert ("scipy.special" in loaded) == (name == "package")
        outputs[name] = (tmp_path / f"{name}_v.json").read_bytes()
    assert outputs["file"] == outputs["package"]


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


def _non_finite_event_c3d(path, word):
    """A C3D trial whose first event's seconds word is `word`."""
    n = 321
    t = np.arange(n) / 100.0
    coords = np.stack([t, -t, 10.0 * np.sin(2.0 * np.pi * t)], axis=1)
    trial = Trial(markers=[MarkerTrajectory("ANK", coords, np.ones(n, bool))],
                  analogs=[], point_rate=100.0, analog_rate=100.0,
                  first_frame=1, last_frame=n,
                  events=[GaitEvent(float(k), Side.LEFT,
                                    EventKind.FOOT_STRIKE) for k in range(4)])
    data = bytearray(write_c3d(trial))
    _, times, _ = _param_fields(data)["EVENT:TIMES"]
    data[times + 4 : times + 8] = struct.pack("<f", word)
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("command", ["inspect", "analyze"])
@pytest.mark.parametrize("time", ["inf", "nan", "-1"])
@pytest.mark.parametrize("route", ["csv", "c3d"])
def test_non_finite_event_time_is_one_error_line(route, time, command,
                                                 tmp_path, capsys):
    if route == "csv":
        trial = tmp_path / "walk.csv"
        _write_marker_trial(trial)
        events = tmp_path / "events.csv"
        _write_events(events)
        with events.open("a", encoding="utf-8") as fh:
            fh.write(f"{time},Left,Foot Strike\n")
        argv = [command, str(trial), "--events", str(events)]
    else:
        trial = tmp_path / "walk.c3d"
        _non_finite_event_c3d(trial, float(time))
        argv = [command, str(trial)]
    if command == "analyze":
        argv += ["--signal", "ANK.z", "--target-mse", "0",
                 "--out-strides", str(tmp_path / "s.csv"),
                 "--out-ensemble", str(tmp_path / "e.csv")]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("exogait: error: ")
    assert err.count("\n") == 1
    assert f"time {time}" in err or f"got {time}" in err
    if route == "csv":
        # The appended row follows the header and _write_events' 7 rows.
        assert err.startswith("exogait: error: events row 9: ")


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


def _write_lab_trial(path, bad_cell=None, n=321, rate=100.0):
    """Markers LANK and RANK plus angle and moment analogs, as plain text;
    bad_cell replaces LANK.x in frame 100."""
    lines = ["time,LANK.x,LANK.y,LANK.z,RANK.x,RANK.y,RANK.z,"
             "analog:angle,analog:moment"]
    for i in range(n):
        t = i / rate
        angle = 20.0 * math.sin(2.0 * math.pi * t)
        cells = [f"{t:.2f}", f"{0.1 * i:.4f}", "1.0", "2.0",
                 f"{angle:.4f}", "3.0", "4.0", f"{angle:.4f}",
                 f"{0.08 * angle:.4f}"]
        if i == 100 and bad_cell is not None:
            cells[1] = bad_cell
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


_LAB_ANALYZE = ["analyze", "walk.csv", "--events", "events.csv",
                "--signal", "RANK.x", "--moment", "moment",
                "--out-strides", "s.csv", "--out-ensemble", "e.csv"]


def test_unread_bad_cell_leaves_inspect_and_analyze(tmp_path, monkeypatch,
                                                    capsys):
    """A non-number in LANK, which neither command reads, changes no
    output; a full read of the same file names the cell."""
    results = []
    for name, bad_cell in (("clean", None), ("dirty", "1e")):
        work = tmp_path / name
        work.mkdir()
        _write_lab_trial(work / "walk.csv", bad_cell)
        _write_events(work / "events.csv")
        monkeypatch.chdir(work)
        codes = (run(["inspect", "walk.csv", "--events", "events.csv"]),
                 run(_LAB_ANALYZE))
        results.append((codes, capsys.readouterr(),
                        (work / "s.csv").read_bytes(),
                        (work / "e.csv").read_bytes()))
    assert results[0][0] == (0, 0)
    assert results[1] == results[0]
    with pytest.raises(exogait.errors.NonNumericCell,
                       match="row 102, column LANK.x: cannot parse '1e'"):
        exogait.read_csv_trial((tmp_path / "dirty" / "walk.csv").read_text(
            encoding="utf-8"))


@pytest.mark.parametrize("argv", [["inspect", "walk.csv"], _LAB_ANALYZE])
def test_duplicate_marker_label_is_one_error_line(argv, tmp_path, monkeypatch,
                                                  capsys):
    lines = ["time,A.x,A.y,A.z,A.x,A.y,A.z"]
    lines += [f"{i / 100:.2f},1,2,3,4,5,6" for i in range(5)]
    (tmp_path / "walk.csv").write_text("\n".join(lines) + "\n",
                                       encoding="utf-8")
    _write_events(tmp_path / "events.csv")
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    assert _error_line(capsys) == (
        "exogait: error: duplicate marker label 'A'\n")


def test_csv_commands_gather_only_their_columns(tmp_path, monkeypatch,
                                                capsys):
    _write_lab_trial(tmp_path / "walk.csv")
    _write_events(tmp_path / "events.csv")
    monkeypatch.chdir(tmp_path)
    gather = csvio._cells
    tables = []

    def spy(buf, starts, lengths):
        cells = gather(buf, starts, lengths)
        # each cell ends with a newline
        lines = [b",".join(cell[:-1] for cell in row).decode("ascii")
                 for row in cells.tolist()]
        tables.append((len(lines), {line.count(",") for line in lines},
                       lines[0]))
        return cells

    monkeypatch.setattr(csvio, "_cells", spy)
    assert run(["inspect", "walk.csv"]) == 0
    assert run(_LAB_ANALYZE) == 0
    capsys.readouterr()
    # time only; then time, RANK.x/y/z and analog:moment, 321 rows each
    assert tables == [(321, {0}, "0.00"),
                      (321, {4}, "0.00,0.0000,3.0,4.0,0.0000")]


def _write_fallback_trial(path, quoted=False, bad_cell=None):
    """The lab trial with a two-frame RANK gap in frames 60-61, which
    analyze fills; quoted quotes every header cell, so that no byte route
    takes the file, and bad_cell replaces RANK.x in frame 100."""
    _write_lab_trial(path)
    rows = [line.split(",")
            for line in path.read_text(encoding="utf-8").splitlines()]
    for frame in (60, 61):
        rows[frame + 1][4:7] = ["", "", ""]
    if bad_cell is not None:
        rows[101][4] = bad_cell
    if quoted:
        rows[0] = [f'"{cell}"' for cell in rows[0]]
    path.write_text("\n".join(map(",".join, rows)) + "\n", encoding="utf-8")


def _lab_outputs(work, monkeypatch, capsys):
    """Exit codes, stdout and stderr of inspect and analyze on walk.csv and
    events.csv in work, and the bytes of the CSVs analyze wrote."""
    monkeypatch.chdir(work)
    codes = (run(["inspect", "walk.csv", "--events", "events.csv"]),
             run(_LAB_ANALYZE))
    written = [(work / name).read_bytes() if (work / name).exists() else None
               for name in ("s.csv", "e.csv")]
    return codes, capsys.readouterr(), written


@pytest.mark.parametrize("bad_cell", [None, "1e"], ids=["clean", "bad_cell"])
def test_quoted_header_trial_reads_as_its_plain_twin(bad_cell, tmp_path,
                                                     monkeypatch, capsys):
    """A trial with a quoted header goes through csv.reader and the row
    reader; inspect and analyze give the same exit codes, stdout, stderr
    and CSVs as on its plain twin, which the byte route takes. RANK, the
    signal, has a gap that analyze fills and moment is an analog channel. A
    bad cell in RANK.x, which analyze reads, is the same one error line on
    both."""
    parse_columns = csvio._parse_columns
    calls = []

    def row_reader(*args):
        calls.append(args)
        return parse_columns(*args)

    monkeypatch.setattr(csvio, "_parse_columns", row_reader)
    results = []
    for quoted in (False, True):
        work = tmp_path / f"quoted{quoted}"
        work.mkdir()
        _write_fallback_trial(work / "walk.csv", quoted, bad_cell)
        _write_events(work / "events.csv")
        calls.clear()
        results.append(_lab_outputs(work, monkeypatch, capsys))
        # The plain twin's analyze read reaches the row reader only for a
        # cell that numpy's cast fails on, so that it names the cell.
        assert len(calls) == (2 if quoted else int(bad_cell is not None))
    assert results[1] == results[0]
    codes, captured, _ = results[0]
    if bad_cell is None:
        assert codes == (0, 0)
        assert captured.err == ""
        assert "strides: 3 kept, 0 excluded" in captured.out
    else:
        assert codes == (0, 2)
        assert captured.err == (
            "exogait: error: row 102, column RANK.x: cannot parse '1e'\n")


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
@pytest.mark.parametrize("name", ["walk.csv", "events.csv"])
def test_byte_order_mark_changes_no_trial_output(name, quoted, tmp_path,
                                                 monkeypatch, capsys):
    """A UTF-8 byte-order mark at the start of a trial, plain or with a
    quoted header, or of its events sidecar is skipped: inspect and analyze
    give the same output as on the file without it."""
    results = []
    for bom in (b"", codecs.BOM_UTF8):
        work = tmp_path / f"bom{len(bom)}"
        work.mkdir()
        _write_fallback_trial(work / "walk.csv", quoted)
        _write_events(work / "events.csv")
        path = work / name
        path.write_bytes(bom + path.read_bytes())
        results.append(_lab_outputs(work, monkeypatch, capsys))
    assert results[0][0] == (0, 0)
    assert results[1] == results[0]


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


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
def test_analyze_target_mse_must_be_finite_and_non_negative(value, source,
                                                           tmp_path, capsys):
    # nan compares false both ways, so it used to turn smoothing off; inf
    # used to smooth to the quadratic limit and report the target met.
    trial, events = tmp_path / "walk01.csv", tmp_path / "walk01_events.csv"
    _write_trial(trial)
    _write_events(events)
    if source == "flag":
        extra = [f"--target-mse={value}"]
    else:
        config = tmp_path / "analyze.json"
        # json writes nan and inf as NaN and Infinity, which it reads back.
        config.write_text(json.dumps({"target_mse": float(value)}),
                          encoding="utf-8")
        extra = ["--config", str(config)]
    code, strides, ens = _analyze(trial, events, tmp_path, "w", "NoExo",
                                  extra)
    assert code == 1
    assert _error_line(capsys) == (
        "exogait: error: --target-mse must be finite and >= 0, "
        f"got {float(value)}\n"
    )
    assert not strides.exists() and not ens.exists()


def _gapped(n, gaps):
    """Valid mask of n frames with the (start, length) gaps cut out."""
    valid = np.ones(n, dtype=bool)
    for start, length in gaps:
        valid[start:start + length] = False
    return valid


@st.composite
def _analyze_case(draw):
    """Input files and argv of one analyze run: markers ANK and TOE with
    gaps of every length, analogs angle and moment, and strides of both
    sides that may lack a foot off or reach past the series."""
    route = draw(st.sampled_from(["csv", "c3d"]))
    rate = draw(st.sampled_from([100.0, 100.0, 50.0]))
    spf = 1 if route == "csv" else draw(st.sampled_from([1, 2]))
    n = draw(st.integers(40, 240))
    first = draw(st.sampled_from([1, 1, 1, 7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = (first - 1 + np.arange(n)) / rate
    events = []
    for side in (Side.LEFT, Side.RIGHT):
        time = draw(st.sampled_from([0.0, 0.03, 0.25, 0.5, 0.004]))
        end = t[-1] + draw(st.sampled_from([-0.2, 0.0, 0.3]))
        while time <= end:
            events.append(GaitEvent(time, side, EventKind.FOOT_STRIKE))
            duration = draw(st.sampled_from([0.3, 0.55, 0.8, 1.0, 0.617]))
            for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
                fraction = draw(st.sampled_from([0.4, 0.6, 0.62]))
                events.append(GaitEvent(round(time + fraction * duration, 3),
                                        side, EventKind.FOOT_OFF))
            time = round(time + duration, 3)
    # Gaps start anywhere, or on the frames around a stride's first and
    # last sample.
    edges = sorted({
        min(max(k, 0), n - 1)
        for e in events if e.kind is EventKind.FOOT_STRIKE
        for x in [(e.time - t[0]) * rate]
        for k in (math.floor(x) - 1, math.floor(x), math.ceil(x),
                  math.ceil(x) + 1)
    })
    start = st.integers(0, n - 1)
    if edges:
        start |= st.sampled_from(edges)
    gap = st.tuples(start, st.sampled_from([1, 2, 3, 5, 9, 10, 11, 14, 25]))
    markers = []
    for label in ("ANK", "TOE"):
        coords = np.round(
            rng.uniform(-50, 50, 3) + 30 * np.sin(2 * np.pi * t[:, None]
                                                  + rng.uniform(0, 6, 3))
            + rng.normal(0, 2, (n, 3)), 4)
        valid = _gapped(n, draw(st.lists(gap, max_size=3)))
        markers.append(MarkerTrajectory(label, coords, valid))
    ta = (first - 1) / rate + np.arange(n * spf) / (rate * spf)
    angle = np.round(20 * np.sin(2 * np.pi * ta) + rng.normal(0, 1, ta.size),
                     4)
    analogs = [exogait.AnalogChannel("angle", angle, rate * spf),
               exogait.AnalogChannel("moment", np.round(0.08 * angle, 4),
                                     rate * spf)]
    sidecar = route == "csv" or draw(st.booleans())
    if draw(st.sampled_from([False] * 15 + [True])):
        events = []
    trial = Trial(markers=markers, analogs=analogs,
                  events=[] if sidecar else events, point_rate=rate,
                  analog_rate=rate * spf, first_frame=first,
                  last_frame=first + n - 1)
    files = {}
    if route == "c3d":
        files["walk.c3d"] = write_c3d(trial)
    else:
        header = ["time"] + [f"{m.label}.{a}" for m in markers for a in "xyz"]
        lines = [",".join(header + ["analog:angle", "analog:moment"])]
        for i in range(n):
            cells = [f"{t[i]:.2f}"]
            for m in markers:
                cells += ([repr(v) for v in m.coords[i].tolist()]
                          if m.valid[i] else ["", "", ""])
            cells += [repr(float(a.samples[i])) for a in analogs]
            lines.append(",".join(cells))
        files["walk.csv"] = ("\n".join(lines) + "\n").encode("ascii")
    argv = ["analyze", next(iter(files))]
    if sidecar:
        rows = ["time,context,label"] + [
            f"{e.time!r},{e.side.value.title()},"
            f"{'Foot Strike' if e.kind is EventKind.FOOT_STRIKE else 'Foot Off'}"
            for e in events]
        files["events.csv"] = ("\n".join(rows) + "\n").encode("ascii")
        argv += ["--events", "events.csv"]
    argv += ["--signal", draw(st.sampled_from(
        ["angle"] * 3 + ["ANK.x"] * 2 + ["ANK.z", "TOE.y", "ANK", "bogus"]))]
    moment = draw(st.sampled_from([None, None, "moment", "TOE.z", "ANK.y",
                                   "bogus"]))
    if moment is not None:
        argv += ["--moment", moment]
    side = draw(st.sampled_from([None, "left", "right", "both"]))
    if side is not None:
        argv += ["--side", side]
    argv += ["--target-mse", draw(st.sampled_from(["0", "0", "0.5", "4",
                                                   "1e6"]))]
    max_gap = draw(st.sampled_from([None, "0", "1", "3", "10", "12", "30"]))
    if max_gap is not None:
        argv += ["--max-gap", max_gap]
    if draw(st.booleans()):
        argv += ["--trial-id", "t1", "--condition", "ExoOff"]
    return files, argv + ["--out-strides", "s.csv", "--out-ensemble", "e.csv"]


def _drop_smoothing(out):
    return "".join(line for line in out.splitlines(keepends=True)
                   if not line.startswith("smoothing: "))


@settings(max_examples=300, deadline=None)
@given(case=_analyze_case())
def test_analyze_matches_oracle(case):
    """cli._cmd_analyze and the inline orchestration of analyze_oracle give
    the same exit code, stderr, stdout and CSV bytes. A run that fails after
    smoothing may leave the smoothing line out of its stdout."""
    files, argv = case
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            (Path(tmp) / name).write_bytes(data)
        # Every file name in argv is one of files or an output.
        argv = [str(Path(tmp) / a) if a in files or a in ("s.csv", "e.csv")
                else a for a in argv]
        for command in (cli._cmd_analyze, oracle_cmd_analyze):
            with _handled_by("analyze", command):
                outcome = _run_captured(argv)
            written = []
            for name in ("s.csv", "e.csv"):
                path = Path(tmp) / name
                written.append(path.read_bytes() if path.exists() else None)
                path.unlink(missing_ok=True)
            results.append((outcome, written))
    ((code, out, err, caught), written), \
        ((want_code, want_out, want_err, _), want_written) = results
    assert code in (0, 1, 2)
    assert caught == []
    if code:
        assert err.startswith("exogait: error: ") and err.count("\n") == 1
        out, want_out = _drop_smoothing(out), _drop_smoothing(want_out)
    assert (code, err, out, written) == \
        (want_code, want_err, want_out, want_written)


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


def test_compare_missing_bound_is_reported_before_a_file_is_read(
        tmp_path, capsys):
    # Used to exit 2 on the missing file, read before the bound was sought.
    missing = tmp_path / "missing.csv"
    code = run(["compare", str(missing), "--features", "wobble"])
    assert code == 1
    assert capsys.readouterr().err == (
        "exogait: error: feature 'wobble' has no default bound; pass --bound\n"
    )


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
    missing = tmp_path / "missing.csv"  # checked before any file is read
    code = run(["compare", str(missing), "--baseline", "X", "--treatment",
                "X"])
    assert code == 1
    assert "condition labels must be distinct" in _error_line(capsys)


def test_compare_oversized_field(tmp_path, capsys):
    a = tmp_path / "a.csv"
    big = "1" * (csv.field_size_limit() + 1)
    a.write_text(f"trial_id,condition,rom\nt1,NoExo,{big}\n",
                 encoding="utf-8")
    code = run(["compare", str(a), "--features", "rom"])
    assert code == 2
    assert "line 2: field larger than field limit" in _error_line(capsys)


# "None" is also the trial of a row too short to hold its trial_id. Ids
# that differ from another only by a trailing NUL or a leading space sit
# under the other condition, so a reader that merged them would see a trial
# under both.
_TRIAL_CONDITION = {"t1": "NoExo", "t2": "NoExo", "t3": "NoExo", "": "NoExo",
                    "t4": "ExoOff", "t5": "ExoOff", "t6": "ExoOff",
                    "None": "ExoOff", "t1\x00": "ExoOff", "\x00": "ExoOff",
                    "t7\x00": "NoExo", "t7\x00\x00": "ExoOff",
                    " t4": "NoExo", "tr\u00e9": "ExoOff",
                    "\u8a66\u884c": "NoExo"}


@st.composite
def _feature_cell(draw, dirty, plain):
    kinds = ["num"] * 12 + ["big", "empty", "space", "spelled", "decimal",
                            "digits17"]
    if not plain:
        kinds.append("padded")  # its newline makes csv.writer quote it
    if dirty:
        kinds += ["bad", "odd"]
    kind = draw(st.sampled_from(kinds))
    if kind == "num":
        return repr(draw(st.floats(-60.0, 60.0, allow_subnormal=False)))
    if kind == "big":
        return repr(draw(st.sampled_from(
            [1e200, -1e200, 1e308, 1e-300, 1e78, -1e78])))
    if kind == "empty":
        return ""
    if kind == "decimal":  # float() literals that repr never writes
        return draw(st.sampled_from(
            ["+.5", "5.", "1E+05", "007", "4.9e-324", "-0", "-.0e-0"]))
    if kind == "digits17":
        return f"{draw(st.floats(-1e6, 1e6, allow_subnormal=False)):.16e}"
    if kind == "space":
        return draw(st.sampled_from([" ", "\t", "  \x1f", "\xa0"]))
    if kind == "padded":
        return f" \x1c{draw(st.integers(-20, 20))}.5\n"
    if kind == "spelled":
        return draw(st.sampled_from(
            ["1_000", "-0.0", "\u0661\u0662", "\xa02.5\u2007"]))
    if kind == "bad":
        bad = ["abc", "1.2.3", "--", "\x00", "1\x00", "2\u00e9", "0x1p3", "1e",
               "+", ".", "1e5.5"]
        return draw(st.sampled_from(bad if plain else bad + ["1,5"]))
    return draw(st.sampled_from(["inf", "-inf", "nan", "1e309", "-1e309"]))


@st.composite
def _strides_file(draw):
    """One strides CSV as text: shuffled, repeated or missing columns, short
    and long rows, blank lines, unknown labels and unparseable cells.

    Three in five files are drawn plain: every row as wide as the header,
    no cell that csv.writer quotes and no carriage return. The others may
    also quote every cell or end their lines with \\r\\n. Either kind may
    lack its last newline or start with a byte order mark.
    """
    plain = draw(st.integers(0, 4)) >= 2
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
            condition = draw(st.sampled_from(
                ["Other", "", " NoExo", "NoExo\x00", "\x00"]))
        row = []
        for name in header:
            if name == "trial_id":
                row.append(trial_id)
            elif name == "condition":
                row.append(condition)
            elif name == "side":
                sides = ["left", "right", "l\u00e9ft", "ri\x00ght", "\xa0left"]
                if not plain:
                    sides.append('say "left"')
                row.append(draw(st.sampled_from(sides)))
            else:
                row.append(draw(_feature_cell(dirty, plain)))
        cut = 0 if plain else draw(st.integers(0, 24))
        if cut == 12:
            row = row[: draw(st.integers(0, len(row)))]
        elif cut == 13:
            row += ["9.5"] * draw(st.integers(1, 2))
        lines.append(row)
        if draw(st.integers(0, 9)) == 5:
            lines.append([])
    end = "\n" if plain or draw(st.integers(0, 3)) else "\r\n"
    quoting = csv.QUOTE_MINIMAL
    if not plain and draw(st.integers(0, 5)) == 0:
        quoting = csv.QUOTE_ALL  # a comma count a plain file could have
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=end, quoting=quoting)
    for row in lines:
        if row:
            writer.writerow(row)
        else:
            out.write(end)
    text = out.getvalue()
    if draw(st.integers(0, 4)) == 2:
        text = text.removesuffix(end)
    if draw(st.integers(0, 7)) == 3:
        text = "\ufeff" + text
    return text


def _run_captured(argv):
    """Exit code, stdout, stderr and warnings of one cli.run call."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = run(argv)
    return code, out.getvalue(), err.getvalue(), \
        [(w.category, str(w.message)) for w in caught]


def _handled_by(name, command):
    """cli._COMMANDS with command as the handler of name, for a with
    block."""
    help_text, positionals, _ = cli._COMMANDS[name]
    return mock.patch.dict(cli._COMMANDS,
                           {name: (help_text, positionals, command)})


def _patched(**consts):
    """Module constants of csvio replaced for a with block."""
    if not consts:
        return contextlib.nullcontext()
    return mock.patch.multiple(csvio, **consts)


def _compare_with_oracle(files, args, to_stdout=True, **consts):
    """The CLI's and the oracle's outcome of one compare over files (text
    or bytes): each the _run_captured tuple and the --out bytes, or None.
    consts replace module constants of csvio for the run, such as
    _PLAIN_MIN_BYTES=0 to take every plain file apart on its bytes.

    The CLI's own outcome must be a clean one: exit 0, 1 or 2, no warning,
    and on failure exactly one error line, so a traceback or warning that
    both sides share does not pass."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, data in enumerate(files):
            path = Path(tmp) / f"strides{k}.csv"
            if isinstance(data, str):
                data = data.encode("utf-8")
            path.write_bytes(data)
            paths.append(str(path))
        results = []
        for name, command in (("cli", cli._cmd_compare),
                              ("oracle", oracle_cmd_compare)):
            out = Path(tmp) / f"{name}.json"
            extra = [] if to_stdout else ["--out", str(out)]
            with _handled_by("compare", command), \
                    _patched(**consts):
                result = _run_captured(["compare", *paths, *args, *extra])
            written = out.read_bytes() if out.exists() else None
            results.append((result, written))
    (code, _, err, caught), _ = results[0]
    assert code in (0, 1, 2)
    assert caught == []
    if code:
        assert err.startswith("exogait: error: ") and err.count("\n") == 1
    else:
        assert err == ""
    return results


@settings(max_examples=300, deadline=None)
@given(
    files=st.lists(_strides_file(), min_size=1, max_size=3),
    features=st.lists(
        st.sampled_from(["rom"] * 5 + ["cycle_duration"] * 4
                        + ["condition", "wobble"]),
        min_size=1, max_size=3),
    bound=st.sampled_from([None] * 4 + ["1.5"] * 2 + ["-1"]),
    labels=st.sampled_from([(), (), ("--baseline", "ExoOff",
                                     "--treatment", "NoExo"),
                            ("--treatment", "Other"), ("--treatment", ""),
                            ("--baseline", "NoExo\x00"),
                            ("--treatment", "\udcff"),
                            ("--treatment", "NoExo")]),
    to_stdout=st.booleans(),
    # A plain file of csvio._PLAIN_MIN_BYTES or more is taken apart on its
    # bytes, a smaller one is left to csv.reader; 0 takes every plain file
    # apart on its bytes. Blocks of 64 bytes split a file into many.
    consts=st.fixed_dictionaries({}, optional={
        "_PLAIN_MIN_BYTES": st.just(0), "_PLAIN_BLOCK": st.just(64)}),
)
# Two strides in all: the fit has no residual degree of freedom.
@example(files=[_TWO_STRIDES], features=["rom"], bound=None, labels=(),
         to_stdout=True, consts={})
def test_compare_matches_oracle(files, features, bound, labels, to_stdout,
                                consts):
    args = ["--features", ",".join(features), *labels]
    if bound is not None:
        args += ["--bound", bound]
    got, want = _compare_with_oracle(files, args, to_stdout, **consts)
    assert got == want


# The two ways a plain file of a few lines can be read: by csv.reader, and
# on its bytes.
_PLAIN_SPLITS = [{}, {"_PLAIN_MIN_BYTES": 0}]


def _plain_strides(n_rows):
    """A strides table that every reader splits at its commas: four trials,
    two per condition, with a side column that compare never reads."""
    lines = ["trial_id,condition,rom,side"]
    for i in range(n_rows):
        condition = "NoExo" if i % 4 < 2 else "ExoOff"
        lines.append(f"t{i % 4},{condition},{10 + i % 7}.25,left")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("tail", [
    "t3,ExoOff,1.5\n",  # short last row
    "t3,ExoOff,1.5,left,9\n",  # long last row
    'say "t3",ExoOff,1.5,left\n',  # a quote, same comma count
    '"t3","ExoOff","1.5","left"\n',  # quoted cells
    "t3,ExoOff,1.5,left\r\n",  # one carriage return
    "t3,ExoOff\rt4,ExoOff,2.5\n",  # a carriage return ends a row
    "\nt3,ExoOff,1.5,left\n\n\n",  # blank lines
    "t3,ExoOff,1.5,left",  # no last newline
    "",
])
def test_compare_nearly_plain_file_matches_oracle(tail):
    data = _plain_strides(8) + tail
    for consts in _PLAIN_SPLITS:
        got, want = _compare_with_oracle([data], ["--features", "rom"],
                                         **consts)
        assert got == want


@pytest.mark.parametrize("labels", [
    ("--treatment", "\udcff"),  # no UTF-8 bytes can spell it
    ("--baseline", "NoExo\x00"),  # a NUL that a bytes array would drop
])
def test_compare_label_matches_no_plain_row(labels):
    # A row with an empty condition, which a label read as no bytes would
    # match.
    data = _plain_strides(12) + "t9,,10.5,left\n"
    for consts in _PLAIN_SPLITS:
        got, want = _compare_with_oracle(
            [data], ["--features", "rom", *labels], **consts)
        assert got == want
        (code, out, err, _), _ = got
        assert (code, out) == (2, "")
        assert err == (f"exogait: error: condition {labels[1]!r} has no "
                       "strides\n")


@pytest.mark.parametrize("labels, message", [
    (["--baseline", "Nope"], "condition 'Nope' has no strides"),
    (["--treatment", "Nope"], "condition 'Nope' has no strides"),
    (["--baseline", "Nope", "--treatment", "Nah"],
     "conditions 'Nope' and 'Nah' have no strides"),
])
def test_compare_names_a_condition_without_strides(labels, message):
    """A label that matches no row is named as typed, not by its code."""
    got, want = _compare_with_oracle(
        [_plain_strides(12)], ["--features", "rom", *labels])
    assert got == want
    (code, out, err, _), _ = got
    assert (code, out, err) == (2, "", f"exogait: error: {message}\n")


def test_compare_invalid_utf8_after_first_8k():
    data = _plain_strides(1500).encode("ascii") + b"t1,NoExo,10.5,l\xffft\n"
    assert len(data) > 3 * 8192
    got, want = _compare_with_oracle([data], ["--features", "rom"])
    assert got == want
    (code, out, err, caught), written = got
    assert (code, out, caught, written) == (2, "", [], None)
    # The position counts from the start of the decoder's current chunk.
    assert err == ("exogait: error: 'utf-8' codec can't decode byte 0xff "
                   "in position 6217: invalid start byte\n")


@pytest.mark.parametrize("extra", [0, 1])
def test_compare_field_at_the_limit_on_plain_file(extra, tmp_path):
    a = tmp_path / "a.csv"
    side = "x" * (csv.field_size_limit() + extra)
    a.write_text(_plain_strides(12) + f"t2,ExoOff,12.5,{side}\n",
                 encoding="utf-8")
    for consts in _PLAIN_SPLITS:
        with _patched(**consts):
            code, out, err, caught = _run_captured(
                ["compare", str(a), "--features", "rom"])
        assert caught == []
        if extra == 0:
            assert (code, err) == (0, "")
            assert json.loads(out)["features"][0]["n_strides"] == {
                "baseline": 6, "treatment": 7}
        else:
            assert (code, out) == (2, "")
            assert err == (f"exogait: error: {a}: line 14: field larger "
                           "than field limit (131072)\n")


def test_compare_plain_feature_reaches_numpy_only_when_decimal(tmp_path):
    a = tmp_path / "a.csv"
    lines = ["trial_id,condition,rom,cycle_duration"]
    for i in range(200):
        cell = [f"{i}.5", "1_000", " 2", "\x1c3", "4\u2007", "5."][i % 6]
        lines.append(f"t{i % 4},{'NoExo' if i % 4 < 2 else 'ExoOff'},"
                     f"{i + 1e-7 * i!r},{cell}")
    a.write_text("\n".join(lines) + "\n", encoding="utf-8")
    features = ["rom", "cycle_duration"]
    with _patched(_PLAIN_MIN_BYTES=0):
        [(_, _, _, (rom, duration))] = csvio._read_plain(
            a, ("NoExo", "ExoOff"), features)
    assert isinstance(rom, np.ndarray) and isinstance(duration, list)
    got, want = _compare_with_oracle(
        [a.read_bytes()], ["--features", ",".join(features)],
        _PLAIN_MIN_BYTES=0)
    assert got == want
    assert got[0][0] == 0


def test_compare_leaves_a_wide_plain_block_to_csv_reader(tmp_path):
    # Padding every trial id to the long one would take about 300 times
    # the block's bytes.
    data = _plain_strides(200)
    wide = data.replace("t3,", "t" * 5000 + ",", 1)
    for text, plain in ((data, True), (wide, False)):
        a = tmp_path / "a.csv"
        a.write_text(text, encoding="utf-8")
        with _patched(_PLAIN_MIN_BYTES=0):
            blocks = csvio._read_plain(a, ("NoExo", "ExoOff"), ["rom"])
        assert (blocks is not None) == plain
        got, want = _compare_with_oracle([text], ["--features", "rom"],
                                         _PLAIN_MIN_BYTES=0)
        assert got == want


@pytest.mark.parametrize("lone_cr", [False, True])
def test_compare_takes_a_crlf_file_apart_on_its_bytes(lone_cr, tmp_path):
    """A plain CRLF file of _PLAIN_MIN_BYTES or more is taken apart on its
    bytes. A lone \\r, which csv.reader reads as a line end, leaves it to
    csv.DictReader. The verdict is the oracle's either way."""
    text = _plain_strides(600).replace("\n", "\r\n")
    if lone_cr:  # the line keeps its comma count
        text = text.replace(",left\r\n", "\r,left\r\n", 1)
    assert len(text) >= csvio._PLAIN_MIN_BYTES
    a = tmp_path / "a.csv"
    a.write_bytes(text.encode("utf-8"))
    blocks = csvio._read_plain(a, ("NoExo", "ExoOff"), ["rom"])
    assert (blocks is None) == lone_cr
    got, want = _compare_with_oracle([text], ["--features", "rom"])
    assert got == want
    (code, _, err, _), _ = got
    assert (code, err) == (0, "")


@pytest.mark.parametrize("consts", _PLAIN_SPLITS, ids=["reader", "bytes"])
def test_compare_skips_a_byte_order_mark(consts, tmp_path):
    """A strides CSV that starts with a UTF-8 byte-order mark gives the
    verdict of the file without it, read by csv.DictReader or, when plain,
    on its bytes."""
    data = _plain_strides(8).encode("utf-8")
    a = tmp_path / "a.csv"
    a.write_bytes(codecs.BOM_UTF8 + data)
    with _patched(**consts):
        blocks = csvio._read_plain(a, ("NoExo", "ExoOff"), ["rom"])
    assert (blocks is None) == (not consts)
    outcomes = [_compare_with_oracle([bom + data], ["--features", "rom"],
                                     **consts)
                for bom in (b"", codecs.BOM_UTF8)]
    assert outcomes[1] == outcomes[0]
    got, want = outcomes[1]
    assert got == want
    (code, _, err, _), _ = got
    assert (code, err) == (0, "")


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
@pytest.mark.parametrize("quoted", [False, True])
def test_compare_reads_a_pipe(quoted, tmp_path, capsys):
    # A pipe has no size and can be read only once: csv.reader reads it
    # whole, plain or not.
    text = _plain_strides(400)
    if quoted:
        text = text.replace("t1,", '"t1",')
    assert csvio._PLAIN_MIN_BYTES < len(text) < 65536  # fits a pipe's buffer
    a = tmp_path / "a.csv"
    a.write_text(text, encoding="utf-8")
    assert run(["compare", str(a), "--features", "rom"]) == 0
    want = capsys.readouterr()
    r, w = os.pipe()
    try:
        os.write(w, text.encode("utf-8"))
        os.close(w)
        code = run(["compare", f"/dev/fd/{r}", "--features", "rom"])
    finally:
        os.close(r)
    assert (code, capsys.readouterr()) == (0, want)


@pytest.mark.parametrize("flag, value", [
    ("--bound", "inf"), ("--angle-bound", "inf"), ("--duration-bound", "inf"),
    ("--bound", "-1"), ("--bound", "nan"), ("--bound", "0"),
    ("--angle-bound", "nan"), ("--alpha", "1"), ("--alpha", "nan"),
    ("--alpha", "0"), ("--alpha", "-inf"), ("--duration-bound", "-inf"),
])
def test_compare_rejects_bad_option_values(flag, value, tmp_path, capsys):
    a = tmp_path / "a.csv"
    a.write_text(_plain_strides(12), encoding="utf-8")
    verdict = tmp_path / "verdict.json"
    code = run(["compare", str(a), "--features", "rom", f"{flag}={value}",
                "--out", str(verdict)])
    assert code == 1
    assert flag in _error_line(capsys)
    assert not verdict.exists()


def test_bytes_cast_parses_cells_as_float_does():
    """Both CSV readers hand cells of [0-9.eE+-] to numpy's bytes to float64
    cast and rely on it giving float()'s value, and failing where float()
    fails: compare's byte path for feature cells, and the plain trial route
    for every time, marker and analog cell it reads. Checked on the installed
    numpy for every such cell of up to 3 characters, and for seeded draws of
    longer ones (number-shaped and not, up to 40 characters), bare and with
    the newline the byte path appends; the accepted cells are cast together,
    so shorter ones carry NUL padding."""
    alphabet = "0123456789.eE+-"
    cells = ["".join(chars) for k in (1, 2, 3)
             for chars in itertools.product(alphabet, repeat=k)]
    assert len(cells) == 3615
    rng = np.random.default_rng(15)
    digits = np.array(list("0123456789"))
    for _ in range(2000):
        mantissa = "".join(rng.choice(digits, rng.integers(1, 18)))
        point = rng.integers(0, len(mantissa) + 1)
        exponent = rng.choice(["e", "E"]) + rng.choice(["", "-", "+"]) \
            + str(rng.integers(0, 400))
        cells.append(rng.choice(["", "-", "+"]) + mantissa[:point] + "."
                     + mantissa[point:] + rng.choice(["", exponent]))
        cells.append("".join(rng.choice(list(alphabet),
                                        rng.integers(4, 41))))
    cells += ["-1234.5678", "1.2345678901234567e-300", "1e309", "-1e309",
              "4.9e-324", "2.4703282292062327e-324", "1.7976931348623157e308"]
    for end in ("", "\n"):
        accepted, values = [], []
        for cell in cells:
            try:
                values.append(float(cell + end))
            except ValueError:
                with pytest.raises(ValueError):
                    np.array([(cell + end).encode()]).astype(float)
            else:
                accepted.append((cell + end).encode())
        assert sum(len(cell) > 4 for cell in accepted) > 1500
        with np.errstate(over="ignore"):  # 1e309 reads as inf
            cast = np.array(accepted).astype(float)
        assert cast.tobytes() == np.array(values).tobytes()


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
# loop moved onto plain floats (the first two) and before the simulator's
# fixed values became module constants (the rest, one per option that sets
# the simulation); the kernel and the trace writer must keep all of them
# byte-identical. The torque_max=4 entry was recorded again when the
# controller's clamp and anti-windup began keying on min(8 Nm, torque_max),
# which changes runs with torque_max below 8 only.
_SIMULATE_GOLDEN = {
    ("--seed", "0"): (
        "7bb04bdfa0d012c4e811f5e1b743401b6452bda546957f85954829b63c56921b",
        "94320505710ae28787c73526c8a2e8d744649737a0ee1ba18cdb44d5301092f1",
    ),
    ("--seed", "1", "--jitter", "0.05"): (
        "bd25b90364ef961a51d8470191a8f84825d3af120281ba6b723449141515d3ba",
        "b08963d6ec334fda1227d1b7eb51791b3281114481b4052cbbdb5f020630f0f3",
    ),
    ("--seed", "2", "--gains", "0.02,8,0.001,0.03"): (
        "a45f746f9bac46b4ee908f26cea5428143d424ad9353cbfb846f35952ed77d4d",
        "21abbcc6188e6c9fa5e1710a2e30e839cb8bf8e6c92b9325725e39b094335eb6",
    ),
    ("--seed", "3", "--profile", "10,40,70,14"): (
        "7bd0bd87d5311dd24305bf979e1020f71119a106242277ff3fb246c91d08e1e1",
        "d89cb13b0d70012373b9c92bf65862ae1e2a859ac2528105164c8815fac60070",
    ),
    ("--seed", "4", "--moment-arm", "0.045"): (
        "d7fc035e380307be2957b43c52a10769b99f9e6a43c963d5d4976f9dd10ff0fa",
        "942bf0b8503c0e76d093edc538447c150c1106c56b0cde4d5a64d6477cff8334",
    ),
    ("--seed", "5", "--constant-reference", "300"): (
        "74742ebacb667354a319f03d09cd275fb6bead683d7f0059a9a911a0e1e97f95",
        "cb79b58050ef57e20e65505dcf289979e2d844087312689f77fd19b3fde99d78",
    ),
    ("--seed", "6", "--jitter", "0.1",
     "--plant", "torque_max=4,control_rate=400"): (
        "b858cc9ab617b2d8bf23dc316d410f250d195e19ff250eeaa63a50773878fb4a",
        "7adb32078233669e983f46b49fc665621d77836a070b9e4f707076ed0d247dff",
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


def _csv_writer_trace(result, path):
    """The trace as csv.writer writes it, _TRACE_CHUNK rows at a time: the
    reference for the bytes of simulate --trace."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["time", "fsr", "gc", "reference", "measured",
                         "tension_true", "cycle"])
        columns = (result.time, result.fsr, result.gc, result.reference,
                   result.measured, result.tension_true, result.cycle_index)
        for lo in range(0, len(result.time), cli._TRACE_CHUNK):
            writer.writerows(zip(
                *(c[lo:lo + cli._TRACE_CHUNK].tolist() for c in columns)
            ))


# Floats whose text is easy to get wrong: signed zero, subnormals, the
# switch to exponent notation on either side, integral values.
_TRACE_FLOATS = [0.0, -0.0, 5e-324, -2.5e-320, 2.225073858507201e-308,
                 1e16, 9999999999999998.0, 1e-05, 0.0001, -1.5e-05, 1.0,
                 3.0, -7.0, 0.1, 1e308, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("n", [1, 511, 512, 513, 1025])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), drawn=st.lists(st.floats(), max_size=8))
def test_simulate_trace_matches_csv_writer(n, seed, drawn):
    """simulate --trace writes the bytes csv.writer writes for the same
    series, at lengths around the _TRACE_CHUNK boundaries."""
    rng = np.random.default_rng(seed)
    pool = np.array(_TRACE_FLOATS + drawn)
    floats = [pool[rng.integers(0, len(pool), n)] for _ in range(6)]
    time, fsr, gc, reference, measured, tension_true = floats
    result = exogait.SimResult(
        time=time, reference=reference, measured=measured,
        tension_true=tension_true, fsr=fsr, gc=gc,
        cycle_index=rng.integers(-2**63, 2**63 - 1, n, dtype=np.int64,
                                 endpoint=True),
        rms_error=0.0, peak_error=0.0,
    )
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        with mock.patch.object(cli, "run_simulation", return_value=result):
            code, _, err, caught = _run_captured(
                ["simulate", "--cycles", "1", "--trace", str(got)])
        assert (code, err, caught) == (0, "", [])
        _csv_writer_trace(result, want)
        assert got.read_bytes() == want.read_bytes()


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


def test_simulate_rejects_negative_seed(capsys):
    # Checked before the run, like a seed that is not an integer; numpy's
    # generator would reject it only inside the simulation, as exit 2.
    with mock.patch.object(cli, "run_simulation") as simulation:
        assert run(["simulate", "--cycles", "1", "--seed", "-1"]) == 1
    simulation.assert_not_called()
    assert _error_line(capsys) == "exogait: error: --seed must be >= 0\n"
    assert run(["simulate", "--cycles", "1", "--seed", "1.5"]) == 1
    _error_line(capsys)


def test_simulate_huge_reference_writes_no_warning(capsys):
    # A 1e308 N error squares to inf: the summary reports an infinite RMS
    # and stderr stays empty.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["simulate", "--cycles", "2",
                    "--constant-reference", "1e308"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["rms_error"] == math.inf


@pytest.mark.parametrize("flag", [
    "--constant-reference=nan",
    "--constant-reference=-inf",
    "--profile=10,20,30,nan",
    "--gains=0.005,2,0.005,nan",
    "--moment-arm=inf",
])
def test_simulate_rejects_non_finite_input(flag, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["simulate", "--cycles", "1", flag]) == 1
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


@pytest.mark.parametrize("argv, config, message", [
    (["simulate"], '{"cycles": 1e400}', "cycles must be an integer, got inf"),
    (["analyze", "walk.csv"], '{"max_gap": -1e999}',
     "max_gap must be an integer, got -inf"),
    (["compare", "strides.csv"], '{"alpha": 1' + "0" * 400 + "}",
     "alpha must be a number, got 1" + "0" * 400),
    (["simulate"], '{"cycles": 2.5, "seed": 1}',
     "cycles must be an integer, got 2.5"),
    (["simulate"], '{"cycles": 2.0, "seed": 1}',
     "cycles must be an integer, got 2.0"),
], ids=["int_inf", "int_minus_inf", "float_10_to_400", "int_2_5", "int_2_0"])
def test_config_value_out_of_range_is_a_usage_error(argv, config, message,
                                                    tmp_path, capsys):
    # JSON reads 1e400 as inf, which int() cannot take, and 10**400 as an
    # int, which float() cannot take. An integer option takes no JSON
    # float, as its flag takes no "2.5" or "2.0".
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config, encoding="utf-8")
    assert run([*argv, "--config", str(cfg)]) == 1
    assert _error_line(capsys) == f"exogait: error: {message}\n"


@pytest.mark.parametrize("data, message", [
    (b'{"cycles": 1' + b"0" * 5000 + b"}",
     "Exceeds the limit (4300 digits) for integer string conversion"),
    (b'{"trace": "\xff.csv"}',
     "'utf-8' codec can't decode byte 0xff in position 11"),
], ids=["int_past_digit_limit", "not_utf8"])
def test_config_json_cannot_read_is_a_usage_error(data, message, tmp_path,
                                                  capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(data)
    assert run(["simulate", "--config", str(cfg)]) == 1
    assert _error_line(capsys).startswith(
        f"exogait: error: config {cfg}: {message}")


def test_config_for_simulate(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "cycles": 2, "seed": 5, "plant": {"loadcell_noise_sd": 0.0},
    }), encoding="utf-8")
    code = run(["simulate", "--config", str(cfg)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_ticks"] == 980


def test_every_option_is_a_flag_and_a_config_key(tmp_path):
    # Each _OPTION_TABLE entry is declared once: the parser's long options
    # and the --config keys both come from it, and resolve alike.
    (subparsers,) = cli._PARSER._subparsers._group_actions
    assert list(subparsers.choices) == list(cli._OPTION_TABLE)
    for command, parser in subparsers.choices.items():
        table = cli._OPTION_TABLE[command]
        flags = {s for action in parser._actions
                 for s in action.option_strings if s.startswith("--")}
        assert flags - {"--help"} == \
            {"--" + dest.replace("_", "-") for dest in table} | {"--config"}
        positionals = ["in.csv" for action in parser._actions
                       if not action.option_strings]
        for dest, (convert, _, _) in table.items():
            # The first of these strings the converter takes.
            raw = next(v for v in ("3", "1,2,3,4", "mass=2")
                       if not _raises_usage_error(convert, dest, v))
            cfg = tmp_path / f"{command}-{dest}.json"
            cfg.write_text(json.dumps({dest: raw}), encoding="utf-8")
            flag = "--" + dest.replace("_", "-")
            by_flag = cli._resolve(cli._PARSER.parse_args(
                [command, *positionals, flag, raw]))
            by_config = cli._resolve(cli._PARSER.parse_args(
                [command, *positionals, "--config", str(cfg)]))
            assert by_flag == by_config
            assert by_flag[dest] == convert(dest, raw)


def _raises_usage_error(convert, dest, value):
    try:
        convert(dest, value)
    except cli._UsageError:
        return True
    return False


def test_unknown_subcommand(capsys):
    assert run(["frobnicate"]) == 1
    _error_line(capsys)
