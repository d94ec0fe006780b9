"""CSV fallback reader, so the pipeline is usable without binary fixtures.

Trial grammar (header row, then one row per point frame):

    time,<label>.x,<label>.y,<label>.z,...[,analog:<label>]

Marker columns come in x/y/z triples sharing a label; analog columns are
single ``analog:<name>`` columns. An empty x,y,z triple marks a gap frame;
analog cells must always be numeric. The time column fixes the sampling
rate (first two rows) and the clock origin (first value, rounded to the
frame grid with frame 1 at t = 0) and is otherwise nominal, but every time
must be finite.

Plain numeric text (see _parse_plain) is read by one np.loadtxt call; any
other text, or plain text that call cannot take as it is, goes through
csv.reader and a column-by-column conversion. Both give the arrays and the
errors of a cell-by-cell read.

Events travel in a separate sidecar CSV (CSV trials have nowhere to put
them): header ``time,context,label``, one event per row, using the same
context/label vocabulary as the binary reader.
"""

from __future__ import annotations

import csv
import io
from itertools import compress

import numpy as np

from .errors import BadHeaderRow, MalformedCsv, NonNumericCell, RaggedRows
from .trial import AnalogChannel, GaitEvent, MarkerTrajectory, Trial
from .c3d import map_event


def _rows(text: str) -> list[list[str]]:
    """The CSV rows of text that hold a non-empty cell."""
    reader = csv.reader(io.StringIO(text))
    try:
        return [r for r in reader if r and any(r)]
    except csv.Error as exc:
        raise MalformedCsv(f"line {reader.line_num}: {exc}") from None


def _cell_float(cell: str, row_no: int, col: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise NonNumericCell(
            f"row {row_no}, column {col}: cannot parse {cell!r}"
        ) from None


def _convert(columns, marker_cols, analog_cols):
    """Arrays of every column; raises ValueError on any unparseable cell.

    A marker frame whose x, y and z cells are all empty is a gap: its
    coordinates stay NaN and only the other frames are converted.
    """
    n = len(columns[0])
    times = np.array(list(map(float, columns[0])))
    coords = {}
    valid = {}
    for lab, c in marker_cols:
        triple = columns[c : c + 3]
        keep = list(map(any, zip(*triple)))
        mask = np.array(keep, dtype=bool)
        xyz = np.full((n, 3), np.nan)
        for axis, col in enumerate(triple):
            xyz[mask, axis] = list(map(float, compress(col, keep)))
        coords[lab] = xyz
        valid[lab] = mask
    analog = {
        lab: np.array(list(map(float, columns[c]))) for lab, c in analog_cols
    }
    return times, coords, valid, analog


def _parse_columns(data_rows, width, marker_cols, analog_cols):
    """Convert the data rows column by column.

    Cells are read as ``float(cell.strip())`` with whitespace-only marker
    triples as gaps. On a bad cell or a ragged row, the rows are walked in
    reading order (width, time, each marker triple, each analog cell) to
    raise the first error.
    """
    if all(len(row) == width for row in data_rows):
        columns = list(zip(*data_rows))
        try:
            return _convert(columns, marker_cols, analog_cols)
        except ValueError:
            pass
        # The raw pass is exact whenever it succeeds, but it can fail where a
        # stripped read succeeds: float() keeps the separators \x1c-\x1f
        # that str.strip() removes, and a whitespace-only triple is a gap
        # only once stripped.
        try:
            return _convert(
                [list(map(str.strip, col)) for col in columns],
                marker_cols,
                analog_cols,
            )
        except ValueError:
            pass
    for r, row in enumerate(data_rows, start=2):
        if len(row) != width:
            raise RaggedRows(
                f"row {r} has {len(row)} cells, header has {width}"
            )
        _cell_float(row[0].strip(), r, "time")
        for lab, c in marker_cols:
            cells = [row[c].strip(), row[c + 1].strip(), row[c + 2].strip()]
            if any(cells):
                for cell, ax in zip(cells, "xyz"):
                    _cell_float(cell, r, f"{lab}.{ax}")
        for lab, c in analog_cols:
            _cell_float(row[c].strip(), r, f"analog:{lab}")
    raise AssertionError("column conversion failed on a well-formed table")


def _plan(row: list[str]):
    """Width and (label, first column) lists of a header row's columns."""
    header = [c.strip() for c in row]
    if not header or header[0] != "time":
        raise BadHeaderRow(f"first column must be 'time', got {header[:1]!r}")

    marker_cols: list[tuple[str, int]] = []
    analog_cols: list[tuple[str, int]] = []
    i = 1
    while i < len(header):
        col = header[i]
        if col.startswith("analog:"):
            label = col[len("analog:") :].strip()
            if not label:
                raise BadHeaderRow(f"column {i}: empty analog label")
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
        marker_cols.append((label, i))
        i += 3
    return len(header), marker_cols, analog_cols


_PLAIN_BYTES = b"0123456789.eE+-,\n"


def _parse_plain(text: str):
    """Plan and arrays of a plain numeric table, or None.

    The table is plain when its first line is the header, with no quote,
    and the body holds only digits, '.', 'e', 'E', '+', '-', commas and
    newlines, with no line longer than the csv field limit. csv.reader
    then splits each line at its commas, and numpy's tokenizer reads each
    cell with the same strtod as float(), so one np.loadtxt call over the
    body, with empty cells written as 'nan', gives the column reader's
    arrays. Whatever it cannot take as it is (an unparseable cell, a ragged
    row, fewer than two rows, an empty time or analog cell, a partly empty
    triple) returns None, so every error comes from the column reader.
    """
    head, newline, body = text.partition("\n")
    if not newline or '"' in head or not body.isascii():
        return None
    raw = body.encode("ascii")
    if raw.translate(None, _PLAIN_BYTES):
        return None
    try:
        width, marker_cols, analog_cols = _plan(next(csv.reader([head])))
    except (csv.Error, BadHeaderRow):
        return None

    buf = np.frombuffer(raw, np.uint8)
    is_newline = buf == ord("\n")
    is_comma = buf == ord(",")
    edges = np.concatenate(([-1], np.flatnonzero(is_newline), [buf.size]))
    lengths = np.diff(edges) - 1
    n = np.count_nonzero(lengths)
    limit = csv.field_size_limit()
    if n < 2 or len(head) > limit or lengths.max() > limit:
        return None
    # An empty cell after a comma becomes nan. An empty time cell, first in
    # its line, stays empty, and loadtxt rejects it.
    ends_cell = np.append(is_comma[1:] | is_newline[1:], True)
    holes = (np.flatnonzero(is_comma & ends_cell) + 1).tolist()
    if holes:
        view = memoryview(raw)
        cuts = [0, *holes, buf.size]
        raw = b"nan".join([view[i:j] for i, j in zip(cuts, cuts[1:])])
    try:
        data = np.loadtxt(
            io.BytesIO(raw), delimiter=",", comments=None, ndmin=2,
            encoding="ascii",
        )
    except ValueError:
        return None
    if data.shape != (n, width):
        return None

    # No cell can spell nan, so a NaN is an empty cell.
    empty = np.isnan(data)
    coords = {}
    valid = {}
    for lab, c in marker_cols:
        gap = empty[:, c]
        if (empty[:, c + 1 : c + 3] != gap[:, None]).any():
            return None
        coords[lab] = data[:, c : c + 3].copy()
        valid[lab] = ~gap
    analog = {}
    for lab, c in analog_cols:
        if empty[:, c].any():
            return None
        analog[lab] = data[:, c].copy()
    return marker_cols, analog_cols, data[:, 0].copy(), coords, valid, analog


def _parse_rows(text: str):
    """Plan and arrays of any table, by csv.reader and the column reader."""
    rows = _rows(text)
    if not rows:
        raise BadHeaderRow("empty input")
    width, marker_cols, analog_cols = _plan(rows[0])
    data_rows = rows[1:]
    if len(data_rows) < 2:
        raise BadHeaderRow(
            "need at least 2 data rows to infer the sampling rate"
        )
    return marker_cols, analog_cols, *_parse_columns(
        data_rows, width, marker_cols, analog_cols
    )


def read_csv_trial(text: str) -> Trial:
    """Parse the documented CSV trial grammar into a Trial."""
    parsed = _parse_plain(text)
    if parsed is None:
        parsed = _parse_rows(text)
    marker_cols, analog_cols, times, coords, valid, analog = parsed
    n = len(times)

    not_finite = ~np.isfinite(times)
    if not_finite.any():
        r = int(np.argmax(not_finite))
        raise NonNumericCell(
            f"row {r + 2}, column time: {float(times[r])} is not finite"
        )
    dt = times[1] - times[0]
    if not dt > 0:
        raise BadHeaderRow("time column must be strictly increasing")
    rate = 1.0 / dt
    # Keep the clock origin so sidecar event times line up: frame 1 is t=0.
    first_frame = int(round(times[0] * rate)) + 1
    if first_frame < 1:
        raise BadHeaderRow("time column must not start before 0")

    markers = [
        MarkerTrajectory(label=lab, coords=coords[lab], valid=valid[lab])
        for lab, _ in marker_cols
    ]
    analogs = [
        AnalogChannel(label=lab, samples=analog[lab], rate=rate)
        for lab, _ in analog_cols
    ]
    return Trial(
        markers=markers,
        analogs=analogs,
        events=[],
        point_rate=rate,
        analog_rate=rate,
        first_frame=first_frame,
        last_frame=first_frame + n - 1,
        subject_meta={},
    )


def read_events_csv(text: str) -> list[GaitEvent]:
    """Parse the events sidecar (``time,context,label``), sorted by time."""
    rows = _rows(text)
    if not rows:
        raise BadHeaderRow("empty events file")
    header = [c.strip() for c in rows[0]]
    if header != ["time", "context", "label"]:
        raise BadHeaderRow(
            f"events header must be time,context,label, got {header!r}"
        )
    events = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise RaggedRows(f"events row {r} has {len(row)} cells")
        t = _cell_float(row[0].strip(), r, "time")
        events.append(map_event(row[1], row[2], t))
    return sorted(events)
