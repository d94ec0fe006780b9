"""Tests for the CSV trial grammar and the events sidecar."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csv_oracle import oracle_read_csv_trial
from exogait.c3d import read_c3d, write_c3d
from exogait.csvio import read_csv_trial, read_events_csv
from exogait.errors import (
    BadHeaderRow,
    MalformedCsv,
    NonNumericCell,
    RaggedRows,
    UnknownEventLabel,
)
from exogait.trial import EventKind, MarkerTrajectory, Side, Trial

_BASIC = """time,HEE.x,HEE.y,HEE.z,analog:angle
0.00,1.0,2.0,3.0,10.0
0.01,1.1,2.1,3.1,11.0
0.02,1.2,2.2,3.2,12.0
0.03,1.3,2.3,3.3,13.0
0.04,1.4,2.4,3.4,14.0
"""


def test_basic_trial():
    trial = read_csv_trial(_BASIC)
    assert trial.point_rate == pytest.approx(100.0)
    assert trial.first_frame == 1
    assert trial.last_frame == 5
    assert [m.label for m in trial.markers] == ["HEE"]
    hee = trial.marker("HEE")
    assert hee.valid.all()
    np.testing.assert_allclose(hee.coords[:, 0], [1.0, 1.1, 1.2, 1.3, 1.4])
    np.testing.assert_allclose(hee.coords[2], [1.2, 2.2, 3.2])
    angle = trial.analog("angle")
    np.testing.assert_allclose(angle.samples, [10.0, 11.0, 12.0, 13.0, 14.0])
    assert angle.rate == pytest.approx(100.0)


def test_gap_rows():
    text = (
        "time,HEE.x,HEE.y,HEE.z\n"
        "0.00,1.0,2.0,3.0\n"
        "0.01,,,\n"
        "0.02,1.2,2.2,3.2\n"
    )
    trial = read_csv_trial(text)
    hee = trial.marker("HEE")
    assert hee.valid.tolist() == [True, False, True]


def test_partial_gap_is_non_numeric():
    text = (
        "time,HEE.x,HEE.y,HEE.z\n"
        "0.00,1.0,2.0,3.0\n"
        "0.01,1.1,,3.1\n"
    )
    with pytest.raises(NonNumericCell):
        read_csv_trial(text)


def test_non_numeric_cell():
    text = (
        "time,HEE.x,HEE.y,HEE.z\n"
        "0.00,a,b,c\n"
        "0.01,1.0,2.0,3.0\n"
    )
    with pytest.raises(NonNumericCell):
        read_csv_trial(text)


def test_ragged_rows():
    text = (
        "time,HEE.x,HEE.y,HEE.z\n"
        "0.00,1.0,2.0,3.0\n"
        "0.01,1.0,2.0\n"
    )
    with pytest.raises(RaggedRows):
        read_csv_trial(text)


def test_bad_headers():
    with pytest.raises(BadHeaderRow):
        read_csv_trial("frame,HEE.x,HEE.y,HEE.z\n0,1,2,3\n1,1,2,3\n")
    with pytest.raises(BadHeaderRow):
        read_csv_trial("time,HEE.x,HEE.z,HEE.y\n0,1,2,3\n0.01,1,2,3\n")
    with pytest.raises(BadHeaderRow):
        read_csv_trial("time,HEE.x,HEE.y\n0,1,2\n0.01,1,2\n")
    with pytest.raises(BadHeaderRow):
        read_csv_trial("time,analog:\n0,1\n0.01,1\n")
    with pytest.raises(BadHeaderRow):
        read_csv_trial("")
    with pytest.raises(BadHeaderRow):
        # one data row is not enough to infer a rate
        read_csv_trial("time,analog:x\n0.0,1.0\n")


def test_time_origin_sets_first_frame():
    text = (
        "time,analog:x\n"
        "0.05,1.0\n"
        "0.06,2.0\n"
        "0.07,3.0\n"
    )
    trial = read_csv_trial(text)
    # frame 1 sits at t = 0, so a series starting at 0.05 s at 100 Hz
    # begins at frame 6
    assert trial.first_frame == 6
    assert trial.last_frame == 8


def test_negative_time_origin_rejected():
    text = "time,analog:x\n-0.05,1.0\n-0.04,2.0\n"
    with pytest.raises(BadHeaderRow):
        read_csv_trial(text)


def test_non_increasing_time_rejected():
    text = "time,analog:x\n0.02,1.0\n0.02,2.0\n"
    with pytest.raises(BadHeaderRow):
        read_csv_trial(text)


def test_events_sidecar():
    text = (
        "time,context,label\n"
        "0.980,Left,Foot Strike\n"
        "0.000,Left,Foot Strike\n"
        "0.559,Left,Foot Off\n"
    )
    events = read_events_csv(text)
    assert [e.time for e in events] == [0.0, 0.559, 0.980]
    assert events[1].kind is EventKind.FOOT_OFF
    assert all(e.side is Side.LEFT for e in events)


def test_events_bad_header():
    with pytest.raises(BadHeaderRow):
        read_events_csv("time,side,label\n0.0,Left,Foot Strike\n")
    with pytest.raises(RaggedRows):
        read_events_csv("time,context,label\n0.0,Left\n")
    with pytest.raises(UnknownEventLabel):
        read_events_csv("time,context,label\n0.0,Left,Jump\n")
    with pytest.raises(NonNumericCell):
        read_events_csv("time,context,label\nx,Left,Foot Strike\n")


@pytest.mark.parametrize("reader, header", [
    (read_csv_trial, "time,analog:a"),
    (read_events_csv, "time,context,label"),
])
def test_oversized_field_is_malformed_csv(reader, header):
    big = "1" * (csv.field_size_limit() + 1)
    with pytest.raises(MalformedCsv,
                       match="line 3: field larger than field limit"):
        reader(f"{header}\n0.0,1\n0.01,{big}\n")


@pytest.mark.parametrize("rows, message", [
    ("-inf,1\n0.0,2\n", "row 2, column time: -inf is not finite"),
    ("0.0,1\ninf,2\n", "row 3, column time: inf is not finite"),
    ("0.0,1\n0.01,2\n\nnan,3\n", "row 4, column time: nan is not finite"),
])
def test_non_finite_time_rejected(rows, message):
    with pytest.raises(NonNumericCell, match=message):
        read_csv_trial("time,analog:a\n" + rows)


# --- column reader against the per-cell oracle --------------------------------

# str.strip() removes all of these; float() ignores all but \x1f.
_PAD = st.sampled_from(
    ["", "", "", " ", "\t", "  ", "\u00a0", "\u2003", "\x1f"]
)
_BLANK = st.sampled_from(["", "", " ", "  ", "\t", "\u00a0 "])
_NUMBER = st.one_of(
    st.floats(width=64).map(repr),
    st.floats(-2000.0, 2000.0).map(lambda v: f"{v:.4f}"),
    st.sampled_from([
        "1e3", "+1.5", "-0", ".5", "5.", "1_000.25", "inf", "-Infinity",
        "nan", "\u0661\u0662",
    ]),
)
_CELL = st.tuples(_PAD, _NUMBER, _PAD).map("".join)
_BAD = st.sampled_from(["", " ", "x", "1.2.3", "--1", "0x1F", "1e", "1 2"])


@st.composite
def _trial_table(draw):
    """(header, rows) of a valid trial; columns interleave markers, analogs."""
    n_markers = draw(st.integers(0, 3))
    n_analogs = draw(st.integers(0, 2))
    kinds = draw(st.permutations(["m"] * n_markers + ["a"] * n_analogs))
    header = ["time"]
    for k, kind in enumerate(kinds):
        if kind == "m":
            header += [f"M{k}.x", f"M{k}.y", f"M{k}.z"]
        else:
            header.append(f"analog:A{k}")
    header = [draw(_PAD) + h + draw(_PAD) for h in header]
    rate = draw(st.sampled_from([50.0, 100.0, 120.0, 1000.0]))
    k0 = draw(st.integers(0, 40))
    rows = []
    for i in range(draw(st.integers(2, 12))):
        row = [draw(_PAD) + repr((k0 + i) / rate) + draw(_PAD)]
        for kind in kinds:
            if kind == "a":
                row.append(draw(_CELL))
            elif draw(st.integers(0, 3)) == 0:
                row += [draw(_BLANK) for _ in range(3)]  # gap frame
            else:
                row += [draw(_CELL) for _ in range(3)]
        rows.append(row)
    return header, rows


def _text(header, rows, blank_after=()):
    lines = [",".join(header)]
    for i, row in enumerate(rows):
        lines.append(",".join(row))
        if i in blank_after:
            lines.append("")
    return "\n".join(lines) + "\n"


def _outcome(reader, text):
    """Exception type and message, or every array of the Trial as bytes."""
    try:
        trial = reader(text)
    except Exception as exc:
        return type(exc), str(exc)
    return (
        float(trial.point_rate).hex(),
        trial.first_frame,
        trial.last_frame,
        [(m.label, m.coords.tobytes(), m.valid.tobytes())
         for m in trial.markers],
        [(a.label, a.samples.tobytes(), float(a.rate).hex())
         for a in trial.analogs],
    )


@settings(max_examples=100, deadline=None)
@given(table=_trial_table(), blank_after=st.sets(st.integers(0, 12)))
def test_reader_matches_oracle_on_valid_trials(table, blank_after):
    text = _text(*table, blank_after=blank_after)
    expected = _outcome(oracle_read_csv_trial, text)
    assert not isinstance(expected[0], type)
    assert _outcome(read_csv_trial, text) == expected


@settings(max_examples=200, deadline=None)
@given(table=_trial_table(), data=st.data())
def test_reader_matches_oracle_on_corrupted_trials(table, data):
    header, rows = table
    # Corrupt cells within two adjacent rows, so that several bad cells
    # often share a row and the reading order decides which one is named.
    r0 = data.draw(st.integers(0, len(rows) - 2))
    for _ in range(data.draw(st.integers(1, 3))):
        r = r0 + data.draw(st.integers(0, 1))
        c = data.draw(st.integers(0, len(header) - 1))
        rows[r][c] = data.draw(_BAD)
    if data.draw(st.booleans()):
        r = data.draw(st.integers(0, len(rows) - 1))
        if data.draw(st.booleans()) or len(rows[r]) == 1:
            rows[r].append(data.draw(_CELL))
        else:
            rows[r].pop()
    text = _text(header, rows)
    assert _outcome(read_csv_trial, text) == _outcome(
        oracle_read_csv_trial, text
    )


# --- CSV route against the C3D route ------------------------------------------


def _csv_text(trial):
    header = ["time"]
    for m in trial.markers:
        header += [f"{m.label}.x", f"{m.label}.y", f"{m.label}.z"]
    lines = [",".join(header)]
    for i in range(trial.n_frames):
        cells = [repr((trial.first_frame - 1 + i) / trial.point_rate)]
        for m in trial.markers:
            if m.valid[i]:
                cells += [repr(v) for v in m.coords[i].tolist()]
            else:
                cells += ["", "", ""]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_markers=st.integers(1, 4),
    n_frames=st.integers(2, 60),
    rate=st.sampled_from([50.0, 100.0, 120.0, 200.0]),
    first_frame=st.integers(1, 500),
)
def test_csv_and_c3d_routes_agree(seed, n_markers, n_frames, rate,
                                  first_frame):
    rng = np.random.default_rng(seed)
    markers = [
        MarkerTrajectory(
            label=f"M{k}",
            coords=rng.uniform(-2000.0, 2000.0, (n_frames, 3)),
            valid=rng.random(n_frames) > 0.2,
        )
        for k in range(n_markers)
    ]
    trial = Trial(markers=markers, analogs=[], events=[], point_rate=rate,
                  analog_rate=rate, first_frame=first_frame,
                  last_frame=first_frame + n_frames - 1)
    from_csv = read_csv_trial(_csv_text(trial))
    from_c3d = read_c3d(write_c3d(trial))
    assert from_csv.first_frame == from_c3d.first_frame == first_frame
    assert from_csv.last_frame == from_c3d.last_frame
    assert from_csv.point_rate == pytest.approx(from_c3d.point_rate, rel=1e-9)
    for a, b in zip(from_csv.markers, from_c3d.markers, strict=True):
        assert a.label == b.label
        assert a.valid.tolist() == b.valid.tolist()
        np.testing.assert_allclose(
            a.coords[a.valid], b.coords[b.valid],
            rtol=np.finfo(np.float32).eps, atol=0.0,
        )
