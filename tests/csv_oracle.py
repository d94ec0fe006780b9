"""Reference CSV trial reader for the csvio tests.

read_csv_trial converts a whole table, or else whole columns, at a time.
This module keeps the straightforward form of the same grammar: one float()
call per cell, in row-major order (time, then every marker triple in header
order, then every analog column), raising at the first bad cell. The library
reader must return bit-identical arrays and raise the same exception with the
same message.
"""

import csv
import io
import math

import numpy as np

from exogait.errors import (
    BadHeaderRow,
    MalformedCsv,
    NonNumericCell,
    RaggedRows,
)
from exogait.trial import AnalogChannel, MarkerTrajectory, Trial


def _cell_float(cell, row_no, col):
    try:
        return float(cell)
    except ValueError:
        raise NonNumericCell(
            f"row {row_no}, column {col}: cannot parse {cell!r}"
        ) from None


def oracle_read_csv_trial(text, columns=None):
    """Same arguments, result and errors as read_csv_trial."""
    reader = csv.reader(io.StringIO(text))
    try:
        rows = [r for r in reader if r and any(r)]
    except csv.Error as exc:
        raise MalformedCsv(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise BadHeaderRow("empty input")
    header = [c.strip() for c in rows[0]]
    if not header or header[0] != "time":
        raise BadHeaderRow(f"first column must be 'time', got {header[:1]!r}")

    marker_cols = []
    analog_cols = []
    i = 1
    while i < len(header):
        col = header[i]
        if col.startswith("analog:"):
            label = col[len("analog:") :].strip()
            if not label:
                raise BadHeaderRow(f"column {i}: empty analog label")
            if label in (lab for lab, _ in analog_cols):
                raise BadHeaderRow(f"duplicate analog label {label!r}")
            analog_cols.append((label, i))
            i += 1
            continue
        if not col.endswith(".x"):
            raise BadHeaderRow(
                f"column {i}: expected '<label>.x' or 'analog:<label>', "
                f"got {col!r}"
            )
        label = col[:-2]
        if not label:
            raise BadHeaderRow(f"column {i}: empty marker label")
        if i + 2 >= len(header) or header[i + 1] != f"{label}.y" or \
                header[i + 2] != f"{label}.z":
            raise BadHeaderRow(
                f"marker {label!r} must have consecutive .x,.y,.z columns"
            )
        if label in (lab for lab, _ in marker_cols):
            raise BadHeaderRow(f"duplicate marker label {label!r}")
        marker_cols.append((label, i))
        i += 3

    data_rows = rows[1:]
    if columns is not None:
        wanted = set(columns)
        unread = [c + k for lab, c in marker_cols if lab not in wanted
                  for k in range(3)]
        unread += [c for lab, c in analog_cols if lab not in wanted]
        for row in data_rows:
            for c in unread:
                if c < len(row):
                    row[c] = "0"
        marker_cols = [(lab, c) for lab, c in marker_cols if lab in wanted]
        analog_cols = [(lab, c) for lab, c in analog_cols if lab in wanted]
    if len(data_rows) < 2:
        raise BadHeaderRow(
            "need at least 2 data rows to infer the sampling rate"
        )
    n = len(data_rows)

    times = np.empty(n)
    coords = {lab: np.full((n, 3), np.nan) for lab, _ in marker_cols}
    valid = {lab: np.zeros(n, dtype=bool) for lab, _ in marker_cols}
    analog = {lab: np.empty(n) for lab, _ in analog_cols}

    for r, row in enumerate(data_rows, start=2):
        if len(row) != len(header):
            raise RaggedRows(
                f"row {r} has {len(row)} cells, header has {len(header)}"
            )
        times[r - 2] = _cell_float(row[0].strip(), r, "time")
        for lab, c in marker_cols:
            cells = [row[c].strip(), row[c + 1].strip(), row[c + 2].strip()]
            if all(cell == "" for cell in cells):
                continue  # gap frame
            coords[lab][r - 2] = [
                _cell_float(cell, r, f"{lab}.{ax}")
                for cell, ax in zip(cells, "xyz")
            ]
            valid[lab][r - 2] = True
        for lab, c in analog_cols:
            analog[lab][r - 2] = _cell_float(
                row[c].strip(), r, f"analog:{lab}"
            )

    for r, t in enumerate(times.tolist(), start=2):
        if not math.isfinite(t):
            raise NonNumericCell(f"row {r}, column time: {t} is not finite")
    dt = float(times[1]) - float(times[0])
    if not dt > 0:
        raise BadHeaderRow("time column must be strictly increasing")
    rate = 1.0 / dt
    if not 0 < rate < math.inf:
        raise BadHeaderRow(
            f"time step {dt!r} s gives no positive, finite sampling rate"
        )
    first_frame = int(round(float(times[0]) * rate)) + 1
    if first_frame < 1:
        raise BadHeaderRow("time column must not start before 0")

    return Trial(
        markers=[
            MarkerTrajectory(label=lab, coords=coords[lab], valid=valid[lab])
            for lab, _ in marker_cols
        ],
        analogs=[
            AnalogChannel(label=lab, samples=analog[lab], rate=rate)
            for lab, _ in analog_cols
        ],
        events=[],
        point_rate=rate,
        analog_rate=rate,
        first_frame=first_frame,
        last_frame=first_frame + n - 1,
        subject_meta={},
    )
