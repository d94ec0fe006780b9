"""CSV readers, so the pipeline is usable without binary fixtures: trials,
the strides tables that compare_tables pools, and the events sidecar.

Trial grammar (header row, then one row per point frame):

    time,<label>.x,<label>.y,<label>.z,...[,analog:<label>]

Marker columns come in x/y/z triples sharing a label; analog columns are
single ``analog:<name>`` columns. An empty x,y,z triple marks a gap frame;
the cells of an analog column that is read must be numeric. The time
column fixes the sampling rate (first two rows) and the clock origin
(first value, rounded to the frame grid with frame 1 at t = 0) and is
otherwise nominal, but every time must be finite.

A trial read scans the whole table once: the header plan (with its
duplicate label check), the csv field limit, the width of every row and
the time column (rate, origin, every time finite, at least two rows). It
then converts only the requested marker triples and analog columns; a
cell in any other column is never parsed, so it cannot fail the read.
Plain numeric text (see _parse_plain) is taken apart on its UTF-8 bytes;
any other text, or plain text the byte route cannot take as it is, goes
through csv.reader and the row reader (_parse_columns), which converts
each requested cell, stripped, once in reading order. Both give the arrays
and the errors of a cell-by-cell read of the requested columns.

A strides table is read as csv.DictReader reads it (see
_read_strides_csv): on its bytes when plain, else by csv.DictReader. Both
byte routes use one splitter, _split, which finds the newlines, counts each
line's commas, skips blank lines where they are and places the cells of
the requested columns, and one gather, _cells, which copies just those
cells into a numpy bytes array. A file whose header line ends in \\r\\n may
end any line so; a \\r anywhere else sends it to the csv module. numpy's
bytes to float64 cast reads a cell of [0-9.eE+-] as float() does, and
fails where float() fails.

One UTF-8 byte-order mark at the start of a trial, a strides CSV or an
events sidecar is skipped, as the utf-8-sig codec skips it.

Events travel in a separate sidecar CSV (CSV trials have nowhere to put
them): header ``time,context,label``, one event per row, using the same
context/label vocabulary as the binary reader.
"""

from __future__ import annotations

import codecs
import csv
import io
import os
import sys
from dataclasses import dataclass
from itertools import compress, islice

import numpy as np

from .errors import (
    BadHeaderRow,
    MalformedCsv,
    NonNumericCell,
    RaggedRows,
    SingularDesign,
    UnknownEventLabel,
)
from .trial import AnalogChannel, GaitEvent, MarkerTrajectory, Trial
from .c3d import map_event
from .stats import LmeFit, TostResult, compare_trials, tost_welch

# The bytes of a plain trial body.
_PLAIN_BYTES = b"0123456789.eE+-,\n"
# Strides CSV rows read at a time by csv.DictReader.
_ROW_CHUNK = 4096
# Bytes of a plain strides CSV split at a time.
_PLAIN_BLOCK = 1 << 20
# Bytes a strides CSV needs to be tried as plain. csv.reader reads a
# smaller file quicker than numpy's fixed costs allow, and reads a pipe
# (size 0), which can be read only once.
_PLAIN_MIN_BYTES = 8192
# A plain block whose requested cells, padded to the longest, would take
# more than this many bytes per byte of the block is left to csv.reader.
_BYTES_PAD = 8
# Bytes csv.reader gives a meaning of their own besides ',' and the line
# ends, which _split takes: the quote and, before Python 3.11, NUL.
_NOT_PLAIN = (b'"',) + ((b"\0",) if sys.version_info < (3, 11) else ())
# The bytes of a plain decimal feature cell, which numpy parses, and the
# newline that ends each cell from _cells.
_DECIMAL = np.zeros(256, bool)
_DECIMAL[np.frombuffer(b"0123456789.eE+-\n", np.uint8)] = True


def _split(buf, width, columns, crlf) -> tuple | None:
    """(starts, lengths) of the cells of the given columns in buf, a uint8
    array of CSV lines without the bytes of _NOT_PLAIN, or None.

    buf holds no \\r when crlf is false. When it is true, a \\r directly
    before a \\n ends the line with it. Blank lines hold no row and are
    skipped where they are; there is a row per other line, and a column the
    file lacks (None) has empty cells. None when buf holds any other \\r,
    when a line does not hold width - 1 commas or is longer than the field
    limit, or when padding the cells to the longest would take more than
    _BYTES_PAD bytes per byte of buf.
    """
    newlines = np.flatnonzero(buf == ord("\n"))
    edges = np.concatenate(([-1], newlines, [buf.size]))
    ends = edges[1:]  # of each line: its newline, or the end of buf
    if crlf:
        # The byte before each newline (a newline at 0 looks at itself).
        cr = buf[np.maximum(newlines, 1) - 1] == ord("\r")
        if np.count_nonzero(buf == ord("\r")) != np.count_nonzero(cr):
            return None
        ends = ends - np.append(cr, False)
    sizes = ends - edges[:-1] - 1
    if sizes.max() > csv.field_size_limit():
        return None
    lines = sizes > 0
    commas = np.flatnonzero(buf == ord(","))
    if (np.diff(np.searchsorted(commas, edges))[lines] != width - 1).any():
        return None
    # Cell c of a row runs from bounds[c] + 1 up to bounds[c + 1]: the
    # newline before the line, its commas, and the end of the line.
    n = int(np.count_nonzero(lines))
    bounds = [edges[:-1][lines], *commas.reshape(n, width - 1).T,
              ends[lines]]
    take = [j or 0 for j in columns]
    starts = np.column_stack([bounds[j] for j in take]) + 1
    lengths = np.column_stack([bounds[j + 1] for j in take]) - starts
    lengths[:, [j is None for j in columns]] = 0
    if lengths.size * (lengths.max(initial=0) + 1) > _BYTES_PAD * buf.size:
        return None
    return starts, lengths


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


def _parse_plain(data: bytes, columns):
    """Plan and arrays of a plain numeric table, given as UTF-8 bytes, or
    None.

    The table is plain when its first line is the header, with no quote,
    and the body holds only digits, '.', 'e', 'E', '+', '-', commas and
    newlines, which csv.reader splits at its commas; when the header line
    ends in \\r\\n, the body may hold \\r too, each directly before a \\n.
    _split places the time and requested cells, _cells gathers them and
    numpy's cast reads the non-empty ones. Whatever that cannot take as it
    is (a long header, a line _split refuses, fewer than two rows, an empty
    time or requested analog cell, a partly empty requested triple, a cell
    the cast fails on) returns None, so every error comes from the row
    reader.
    """
    cut = data.find(b"\n")
    head = data[:cut]
    if cut < 0 or b'"' in head or cut > csv.field_size_limit():
        return None
    plain = _PLAIN_BYTES
    crlf = head.endswith(b"\r")
    if crlf:  # _split takes the \r of the body
        head = head[:-1]
        plain += b"\r"
    # The body is plain when deleting the plain bytes from the whole table
    # leaves what they leave of the header: no copy of the body is made.
    kept = data.translate(None, plain)
    if kept != head.translate(None, plain):
        return None
    try:
        head = head.decode("utf-8")
        width, marker_cols, analog_cols = _plan(next(csv.reader([head])))
    except (UnicodeDecodeError, csv.Error, BadHeaderRow):
        return None
    markers = _select(marker_cols, columns)
    analogs = _select(analog_cols, columns)
    # The time column and the cells of the requested columns, in order.
    used = sorted([0, *(c + k for _, c in markers for k in range(3)),
                   *(c for _, c in analogs)])
    buf = np.frombuffer(data, np.uint8, offset=cut + 1)
    split = _split(buf, width, used, crlf)
    if split is None or len(split[0]) < 2:
        return None
    starts, lengths = split
    empty = lengths == 0
    if empty[:, 0].any():
        return None  # the row reader names the empty time cell
    cells = _cells(buf, starts, lengths)
    values = np.full(cells.shape, np.nan)
    try:
        with np.errstate(over="ignore"):  # 1e309 reads as inf
            values[~empty] = cells[~empty].astype(float)
    except ValueError:
        return None

    # A triple's three columns are neighbours in used.
    at = {c: j for j, c in enumerate(used)}
    coords, valid, analog = {}, {}, {}
    for lab, c in markers:
        j = at[c]
        gap = empty[:, j]
        if (empty[:, j + 1 : j + 3] != gap[:, None]).any():
            return None
        coords[lab] = values[:, j : j + 3].copy()
        valid[lab] = ~gap
    for lab, c in analogs:
        j = at[c]
        if empty[:, j].any():
            return None
        analog[lab] = values[:, j].copy()
    return marker_cols, analog_cols, values[:, 0].copy(), coords, valid, analog


def _parse_columns(data_rows, width, marker_cols, analog_cols):
    """Arrays of the time column and the given columns of the data rows, in
    one row-major pass.

    Each row's width is checked, then its time cell, each given marker
    triple and each given analog cell are read as ``float(cell.strip())``,
    in that order, so the first bad cell raises. A triple whose stripped
    cells are all empty is a gap and stays NaN.
    """
    n = len(data_rows)
    times = np.empty(n)
    coords = {lab: np.full((n, 3), np.nan) for lab, _ in marker_cols}
    valid = {lab: np.zeros(n, bool) for lab, _ in marker_cols}
    analog = {lab: np.empty(n) for lab, _ in analog_cols}
    for i, row in enumerate(data_rows):
        r = i + 2
        if len(row) != width:
            raise RaggedRows(
                f"row {r} has {len(row)} cells, header has {width}"
            )
        times[i] = _cell_float(row[0].strip(), r, "time")
        for lab, c in marker_cols:
            cells = [cell.strip() for cell in row[c : c + 3]]
            if any(cells):
                coords[lab][i] = [_cell_float(cell, r, f"{lab}.{ax}")
                                  for cell, ax in zip(cells, "xyz")]
                valid[lab][i] = True
        for lab, c in analog_cols:
            analog[lab][i] = _cell_float(row[c].strip(), r, f"analog:{lab}")
    return times, coords, valid, analog


def _parse_rows(text: str, columns):
    """Plan and arrays of any table, by csv.reader and the row reader."""
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


def read_csv_with_labels(text: str | bytes, columns):
    """(trial of the requested columns, marker labels, analog labels).

    text is the table as str, or as the bytes of a UTF-8 file, which is
    decoded as a text-mode read would be (universal newlines) unless the
    plain route takes it. One leading byte-order mark is skipped in either,
    as the utf-8-sig codec skips it. One scan of the whole table for either
    route (see the module docstring); only the requested columns are
    converted. The labels are those of the header, requested or not.
    """
    if columns is not None:
        columns = frozenset(columns)
    if isinstance(text, str):
        text = text.removeprefix("\ufeff")
        # A lone surrogate passes into bytes that are not UTF-8, which the
        # plain route refuses, so the row reader gets the str as it is.
        data = text.encode("utf-8", "surrogatepass")
    else:
        data, text = text.removeprefix(codecs.BOM_UTF8), None
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
    return read_csv_with_labels(text, columns)[0]


def _read_strides_csv(paths, labels, features) -> tuple:
    """The labelled rows of every strides CSV, in file order:
    (conditions, trial_codes, trial_names, cells).

    A row is labelled when its condition cell is labels[0] (condition 0) or
    labels[1] (condition 1); other rows are dropped. trial_codes[i] indexes
    trial_names, which holds each trial id once, in no set order.
    cells[feature] is a list of pieces for _feature_values, in row order.

    Rows read as csv.DictReader reads them: blank lines are skipped, a
    repeated header name reads its last column, and a cell past the end of
    a short row, or in a column the file lacks, is missing (None, or empty
    in a plain file). A file is read in blocks, by _read_plain or else
    _read_rows: (conditions, names, codes, cells) of the labelled rows of
    some of its lines, with each trial id of the block once in names and
    one piece of cells per feature. Every file is read before any feature
    cell is parsed.
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
            recode = np.array([trials.setdefault(name, len(trials))
                               for name in names], np.intp)
            conditions.append(block_conditions)
            trial_codes.append(recode[codes])
            for piece, pieces in zip(block_cells, cells.values()):
                pieces.append(piece)
    return (np.concatenate(conditions), np.concatenate(trial_codes),
            list(trials), cells)


def _read_rows(path, labels, features) -> list[tuple]:
    """The blocks of a strides CSV read by csv.DictReader, _ROW_CHUNK rows
    at a time, from a utf-8-sig open (one leading byte-order mark is
    skipped)."""
    blocks = []
    names = ("condition", "trial_id", *features)
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            header = reader.fieldnames
            if header is None or "trial_id" not in header or \
                    "condition" not in header:
                raise BadHeaderRow(f"{path}: strides CSV needs trial_id and "
                                   "condition columns")
            while chunk := list(islice(reader, _ROW_CHUNK)):
                rows = [list(map(row.get, names)) for row in chunk]
                blocks.append(_string_block(list(zip(*rows)), labels))
        except csv.Error as exc:
            # DictReader.line_num is not updated when a row raises.
            raise MalformedCsv(
                f"{path}: line {reader.reader.line_num}: {exc}"
            ) from None
    return blocks


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
    the csv field limit. It holds no \\r, or, when its header line ends in
    \\r\\n, none but those directly before a \\n. csv.reader splits such a
    file at its commas and line ends, so those are all that is looked for.
    The file is taken apart on its bytes (see _split and _bytes_block) in
    blocks of whole lines, about _PLAIN_BLOCK bytes each. One leading
    byte-order mark is skipped, as _read_rows skips it. A file smaller than
    _PLAIN_MIN_BYTES is not looked at.
    """
    if os.stat(path).st_size < _PLAIN_MIN_BYTES:
        return None
    limit = csv.field_size_limit()
    with open(path, "rb") as fh:
        if fh.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
            fh.seek(0)
        head = fh.readline(limit + 1)
        crlf = head.endswith(b"\r\n")
        head = head.removesuffix(b"\r\n" if crlf else b"\n")
        # _split takes the \r of a CRLF body; an LF file holds none.
        not_plain = _NOT_PLAIN if crlf else (*_NOT_PLAIN, b"\r")
        try:
            header = head.decode().split(",")
        except UnicodeDecodeError:
            return None
        if len(head) > limit or any(byte in head for byte in _NOT_PLAIN) \
                or b"\r" in head or "trial_id" not in header \
                or "condition" not in header:
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
                block, rest = rest, b""
            else:
                return blocks
            if any(byte in block for byte in not_plain) or len(rest) > limit:
                return None
            try:
                block.decode()
            except UnicodeDecodeError:
                return None
            buf = np.frombuffer(block, np.uint8)
            split = _split(buf, width, columns, crlf)
            if split is None:
                return None
            blocks.append(_bytes_block(buf, *split, labels))


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
    # return_index picks a stable sort, 3x quicker on runs of one trial id.
    distinct, _, codes = np.unique(cells[:, 1], return_index=True,
                                   return_inverse=True)
    names = [name[:-1].decode() for name in distinct.tolist()]
    pieces = []
    for k in range(2, cells.shape[1]):
        column = cells[:, k].copy()
        # Every byte of the cells in [0-9.eE+-]? The newline after each
        # cell counts as one such byte, the padding as none.
        decimal = np.count_nonzero(_DECIMAL.take(column.view(np.uint8)))
        if decimal != lengths[:, k].sum() + column.size:
            column = [cell[:-1].decode() for cell in column.tolist()]
        pieces.append(column)
    return coded[labelled], names, codes, pieces


def _feature_values(feature, pieces) -> tuple[np.ndarray, np.ndarray]:
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


@dataclass(frozen=True)
class FeatureComparison:
    """What compare_tables found for one feature: (baseline, treatment)
    counts of the strides with a value for it and of their trials, the
    mixed-model fit over those strides and the TOST over the trial means."""

    feature: str
    n_strides: tuple[int, int]
    n_trials: tuple[int, int]
    fit: LmeFit
    tost: TostResult


def compare_tables(paths, features, bounds, *, baseline: str, treatment: str,
                   alpha: float) -> list[FeatureComparison]:
    """One comparison per feature, in order, over the strides CSVs at paths:
    what compare runs. Rows of condition baseline are coded 0, of treatment
    1, and others dropped; compare_trials fits features[i] and tost_welch
    tests its trial means against bounds[i] at alpha. A condition with no
    strides of a feature raises SingularDesign naming its label."""
    if baseline == treatment:
        raise ValueError("condition labels must be distinct")
    if len(bounds) != len(features):
        raise ValueError(f"{len(features)} features but {len(bounds)} bounds")
    conditions, trial_codes, trial_names, cells = _read_strides_csv(
        paths, (baseline, treatment), features
    )
    results = []
    for feature, bound in zip(features, bounds):
        strides, keep = _feature_values(feature, cells[feature])
        kept_conditions = conditions[keep]
        n0 = int(np.count_nonzero(kept_conditions == 0))
        n_strides = (n0, len(strides) - n0)
        empty = [label for label, n in zip((baseline, treatment), n_strides)
                 if n == 0]
        if len(empty) == 1:
            raise SingularDesign(f"condition {empty[0]!r} has no strides")
        if empty:
            raise SingularDesign(
                f"conditions {empty[0]!r} and {empty[1]!r} have no strides"
            )
        fit, means_a, means_b = compare_trials(
            strides, kept_conditions, trial_codes[keep], trial_names
        )
        results.append(FeatureComparison(
            feature=feature,
            n_strides=n_strides,
            n_trials=(len(means_a), len(means_b)),
            fit=fit,
            tost=tost_welch(means_a, means_b, bound, alpha=alpha),
        ))
    return results


def read_events_csv(text: str) -> list[GaitEvent]:
    """Parse the events sidecar (``time,context,label``), sorted by time.

    One leading byte-order mark is skipped, as read_csv_with_labels skips
    it.
    """
    rows = _rows(text.removeprefix("\ufeff"))
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
