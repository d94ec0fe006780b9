"""CSV fallback reader, so the pipeline is usable without binary fixtures.

Trial grammar (header row, then one row per point frame):

    time,<label>.x,<label>.y,<label>.z,...[,analog:<label>]

Marker columns come in x/y/z triples sharing a label; analog columns are
single ``analog:<name>`` columns. An empty x,y,z triple marks a gap frame;
the cells of an analog column that is read must be numeric. The time
column fixes the sampling rate (first two rows) and the clock origin
(first value, rounded to the frame grid with frame 1 at t = 0) and is
otherwise nominal, but every time must be finite.

A read scans the whole table once: the header plan (with its duplicate
label check), the csv field limit, the width of every row and the time
column (rate, origin, every time finite, at least two rows). It then
converts only the requested marker triples and analog columns; a cell in
any other column is never parsed, so it cannot fail the read. Plain
numeric text (see _parse_plain) is read from its UTF-8 bytes by one
np.loadtxt call over a copy of the time and requested cells; any other
text, or plain text that call cannot take as it is, goes through
csv.reader and a column-by-column conversion. Both give the arrays and
the errors of a cell-by-cell read of the requested columns.

Events travel in a separate sidecar CSV (CSV trials have nowhere to put
them): header ``time,context,label``, one event per row, using the same
context/label vocabulary as the binary reader.
"""

from __future__ import annotations

import csv
import io
from itertools import compress

import numpy as np

from .errors import (
    BadHeaderRow,
    MalformedCsv,
    NonNumericCell,
    RaggedRows,
    UnknownEventLabel,
)
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
    """Arrays of the time column and of the given marker triples and analog
    columns; raises ValueError on any unparseable cell among them.

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
    """Convert the time column and the given columns of the data rows.

    Cells are read as ``float(cell.strip())`` with whitespace-only marker
    triples as gaps. On a bad cell or a ragged row, the rows are walked in
    reading order (width, time, each given marker triple, each given
    analog cell) to raise the first error.
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
        used = set(_used(marker_cols, analog_cols))
        try:
            return _convert(
                [list(map(str.strip, col)) if c in used else col
                 for c, col in enumerate(columns)],
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
    """Width and (label, first column) lists of a header row's columns.

    Marker labels are unique among markers, analog labels among analogs.
    """
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
    return len(header), marker_cols, analog_cols


def _select(cols, columns):
    """The (label, column) pairs whose label is in columns (all for None)."""
    if columns is None:
        return cols
    return [(lab, c) for lab, c in cols if lab in columns]


def _used(marker_cols, analog_cols) -> list[int]:
    """Sorted indices of the time column and the given columns' cells."""
    return sorted([0, *(c + k for _, c in marker_cols for k in range(3)),
                   *(c for _, c in analog_cols)])


_PLAIN_BYTES = b"0123456789.eE+-,\n"


def _parse_plain(data: bytes, columns):
    """Plan and arrays of a plain numeric table, given as UTF-8 bytes, or
    None.

    The table is plain when its first line is the header, with no quote,
    and the body holds only digits, '.', 'e', 'E', '+', '-', commas and
    newlines, with no line longer than the csv field limit. csv.reader
    then splits each line at its commas, and numpy's tokenizer reads each
    cell with the same strtod as float(). The commas of every line are
    counted, which places every cell; the time and requested cells, with
    'nan' for an empty one, are copied into a table of their own, and one
    np.loadtxt call over that table gives the column reader's arrays.
    Whatever it cannot take as it is (a ragged row, fewer than two rows, an
    unparseable or empty time cell, an unparseable or empty requested
    analog cell, a partly empty requested triple) returns None, so every
    error comes from the column reader.
    """
    cut = data.find(b"\n")
    head = data[:cut]
    if cut < 0 or b'"' in head:
        return None
    # The body is plain when deleting the plain bytes from the whole table
    # leaves what they leave of the header: no copy of the body is made.
    kept = data.translate(None, _PLAIN_BYTES)
    if kept != head.translate(None, _PLAIN_BYTES):
        return None
    try:
        head = head.decode("utf-8")
        width, marker_cols, analog_cols = _plan(next(csv.reader([head])))
    except (UnicodeDecodeError, csv.Error, BadHeaderRow):
        return None

    buf = np.frombuffer(data, np.uint8, offset=cut + 1)
    edges = np.concatenate(
        ([-1], np.flatnonzero(buf == ord("\n")), [buf.size])
    )
    lengths = np.diff(edges) - 1
    lines = lengths > 0
    n = np.count_nonzero(lines)
    limit = csv.field_size_limit()
    if n < 2 or len(head) > limit or lengths.max() > limit:
        return None
    commas = np.flatnonzero(buf == ord(","))
    if (np.diff(np.searchsorted(commas, edges))[lines] != width - 1).any():
        return None
    # Cell c of data row i runs from bounds[i, c] + 1 up to bounds[i, c + 1]:
    # the newline before the row, its commas, and the newline after it (or
    # the end of the body).
    bounds = np.column_stack(
        (edges[:-1][lines], commas.reshape(n, width - 1), edges[1:][lines])
    )
    markers = _select(marker_cols, columns)
    analogs = _select(analog_cols, columns)
    used = _used(markers, analogs)
    first = bounds[:, used] + 1
    size = bounds[:, np.add(used, 1)] - first
    empty = size == 0
    if empty[:, 0].any():
        return None  # the column reader names the empty time cell
    # The used cells alone, each followed by a delimiter and 'nan' (copied
    # from past the end of the body) standing in for an empty cell, make a
    # table of their own, so numpy's tokenizer splits no other cell.
    first[empty] = buf.size
    size[empty] = 3
    first, size = first.ravel(), size.ravel() + 1
    stop = np.cumsum(size)
    index = np.arange(stop[-1]) + np.repeat(first - (stop - size), size)
    table = np.append(buf, np.frombuffer(b"nan,", np.uint8))[index]
    table[stop - 1] = ord(",")
    table[stop[len(used) - 1 :: len(used)] - 1] = ord("\n")
    try:
        data = np.loadtxt(
            io.BytesIO(table.tobytes()), delimiter=",", comments=None, ndmin=2,
            encoding="ascii",
        )
    except ValueError:
        return None
    if data.shape != (n, len(used)):
        return None

    # A triple's three columns are neighbours in used.
    at = {c: j for j, c in enumerate(used)}
    coords = {}
    valid = {}
    for lab, c in markers:
        j = at[c]
        gap = empty[:, j]
        if (empty[:, j + 1 : j + 3] != gap[:, None]).any():
            return None
        coords[lab] = data[:, j : j + 3].copy()
        valid[lab] = ~gap
    analog = {}
    for lab, c in analogs:
        j = at[c]
        if empty[:, j].any():
            return None
        analog[lab] = data[:, j].copy()
    return marker_cols, analog_cols, data[:, 0].copy(), coords, valid, analog


def _parse_rows(text: str, columns):
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
        data_rows, width, _select(marker_cols, columns),
        _select(analog_cols, columns),
    )


def _read(text: str | bytes, columns):
    """Trial of the requested columns, and every marker and analog label.

    text is the table as str, or as the bytes of a UTF-8 file, which is
    decoded as a text-mode read would be (universal newlines) unless the
    plain route takes it. One scan of the whole table for either route (see
    the module docstring); only the requested columns are converted. The
    labels are those of the header, requested or not.
    """
    if columns is not None:
        columns = frozenset(columns)
    if isinstance(text, str):
        # A lone surrogate passes into bytes that are not UTF-8, which the
        # plain route refuses, so the column reader gets the str as it is.
        data = text.encode("utf-8", "surrogatepass")
    else:
        data, text = text, None
    parsed = _parse_plain(data, columns)
    if parsed is None:
        if text is None:
            text = io.StringIO(data.decode("utf-8"), newline=None).read()
        parsed = _parse_rows(text, columns)
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
        for lab, _ in marker_cols if lab in coords
    ]
    analogs = [
        AnalogChannel(label=lab, samples=analog[lab], rate=rate)
        for lab, _ in analog_cols if lab in analog
    ]
    trial = Trial(
        markers=markers,
        analogs=analogs,
        events=[],
        point_rate=rate,
        analog_rate=rate,
        first_frame=first_frame,
        last_frame=first_frame + n - 1,
        subject_meta={},
    )
    return (trial, [lab for lab, _ in marker_cols],
            [lab for lab, _ in analog_cols])


def read_csv_trial(text: str, columns=None) -> Trial:
    """Parse the documented CSV trial grammar into a Trial.

    columns, a collection of labels, limits the markers and analog
    channels converted and returned to those with a label in it; None
    takes every column. The whole table is checked either way.
    """
    return _read(text, columns)[0]


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
        try:
            events.append(map_event(row[1], row[2], t))
        except (UnknownEventLabel, ValueError) as exc:
            raise type(exc)(f"events row {r}: {exc}") from None
    return sorted(events)
