"""Reader and writer for a working subset of the C3D motion-capture container.

The C3D layout handled here: 512-byte blocks, a binary header in block 1
(byte 2 must be 0x50), a parameter section of group/parameter records, and a
frame-interleaved 3D+analog data section. Only Intel byte order (processor
type 84) is supported; point data is read in both integer and floating-point
storage and always written as floating point.

Reference for byte offsets: the public C3D format description. All multi-byte
values are little-endian. The next-record offset inside a parameter record is
measured from the first byte following the offset field; an offset of zero
ends the section.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyTrial,
    MalformedHeader,
    MissingRequiredParameter,
    TooManyMarkers,
    TruncatedData,
    UnknownEventLabel,
    UnsupportedProcessor,
)
from .trial import (
    AnalogChannel,
    EventKind,
    GaitEvent,
    MarkerTrajectory,
    Side,
    Trial,
)

BLOCK = 512
PROC_INTEL = 84

# Fixed event vocabulary. Context/label strings outside these tables raise
# UnknownEventLabel instead of being dropped, since a silently missing event
# corrupts every stride segmented downstream.
EVENT_CONTEXTS = {
    "left": Side.LEFT,
    "right": Side.RIGHT,
}
EVENT_LABELS = {
    "foot strike": EventKind.FOOT_STRIKE,
    "strike": EventKind.FOOT_STRIKE,
    "foot off": EventKind.FOOT_OFF,
    "off": EventKind.FOOT_OFF,
}
CONTEXT_NAMES = {Side.LEFT: "Left", Side.RIGHT: "Right"}
LABEL_NAMES = {EventKind.FOOT_STRIKE: "Foot Strike", EventKind.FOOT_OFF: "Foot Off"}


def map_event(context: str, label: str, time: float) -> GaitEvent:
    """Map context/label strings to a typed gait event.

    The accepted vocabulary (case-insensitive, surrounding whitespace
    ignored): contexts ``Left``/``Right``; labels ``Foot Strike``/``Strike``
    and ``Foot Off``/``Off``.
    """
    side = EVENT_CONTEXTS.get(context.strip().lower())
    if side is None:
        raise UnknownEventLabel(f"unknown event context {context!r}")
    kind = EVENT_LABELS.get(label.strip().lower())
    if kind is None:
        raise UnknownEventLabel(f"unknown event label {label!r}")
    return GaitEvent(time=time, side=side, kind=kind)


class _Cursor:
    """Bounds-checked little-endian byte reader."""

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self.data = data
        self.pos = pos

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedData(
                f"needed {n} bytes at offset {self.pos}, "
                f"file has {len(self.data)}"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def i8(self) -> int:
        return struct.unpack("<b", self.take(1))[0]

    def u8(self) -> int:
        return self.take(1)[0]

    def i16(self) -> int:
        return struct.unpack("<h", self.take(2))[0]


def _widen(words: np.ndarray) -> np.ndarray:
    """float64 copy of float32 or int16 words; a signaling NaN becomes a
    quiet NaN without numpy's invalid-cast warning."""
    with np.errstate(invalid="ignore"):
        return words.astype(float)


@dataclass
class _Param:
    """One decoded parameter record (still in raw bytes)."""

    name: str
    dtype: int  # -1 char, 1 byte, 2 int16, 4 float32
    dims: list[int]
    data: bytes

    @property
    def count(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n

    def floats(self) -> np.ndarray:
        if self.dtype != 4:
            raise MalformedHeader(f"parameter {self.name} is not float")
        return _widen(np.frombuffer(self.data, dtype="<f4"))

    def ints(self) -> np.ndarray:
        if self.dtype == 2:
            return np.frombuffer(self.data, dtype="<i2").astype(int)
        if self.dtype == 1:
            return np.frombuffer(self.data, dtype="<i1").astype(int)
        raise MalformedHeader(f"parameter {self.name} is not integer")

    def uint16s(self) -> np.ndarray:
        # Counters like USED use the full 0..65535 range even though the
        # traditional storage is a signed word.
        if self.dtype != 2:
            raise MalformedHeader(f"parameter {self.name} is not a 16-bit int")
        return np.frombuffer(self.data, dtype="<u2").astype(int)

    def scalar_uint16(self) -> int:
        vals = self.uint16s()
        if vals.size < 1:
            raise MalformedHeader(f"parameter {self.name} is empty")
        return int(vals[0])

    def scalar_float(self) -> float:
        vals = self.floats()
        if vals.size < 1:
            raise MalformedHeader(f"parameter {self.name} is empty")
        return float(vals[0])

    def strings(self) -> list[str]:
        """Char data as a list of right-stripped strings.

        Char matrices are stored column-major with the character index as
        the first (fastest) dimension, so dims [width, n] decode to n
        strings of width bytes.
        """
        if self.dtype != -1:
            raise MalformedHeader(f"parameter {self.name} is not char")
        if not self.dims:
            return [self.data.decode("latin-1").rstrip()] if self.data else [""]
        width = self.dims[0]
        n = self.count // width if width else 0
        out = []
        for j in range(n):
            raw = self.data[j * width : (j + 1) * width]
            out.append(raw.decode("latin-1").rstrip())
        return out


def _parse_params(
    data: bytes, start: int, n_blocks: int
) -> dict[str, dict[str, _Param]]:
    section_end = min(len(data), start + max(1, n_blocks) * BLOCK)
    cur = _Cursor(data, start + 4)
    groups_by_id: dict[int, str] = {}
    raw: list[tuple[int, _Param]] = []
    while cur.pos + 2 <= section_end:
        rec_start = cur.pos
        name_len = cur.i8()
        group_id = cur.i8()
        if name_len == 0 or group_id == 0:
            break
        name = cur.take(abs(name_len)).decode("latin-1").upper()
        offset = cur.i16()
        next_pos = cur.pos + offset
        if group_id < 0:
            desc_len = cur.u8()
            cur.take(desc_len)
            groups_by_id[-group_id] = name
        else:
            dtype = cur.i8()
            ndims = cur.u8()
            dims = [cur.u8() for _ in range(ndims)]
            elem = 1 if dtype == -1 else abs(dtype)
            count = 1
            for d in dims:
                count *= d
            payload = cur.take(count * elem)
            desc_len = cur.u8()
            cur.take(desc_len)
            raw.append((group_id, _Param(name, dtype, dims, payload)))
        if cur.pos > section_end:
            raise TruncatedData("parameter record crosses the section boundary")
        if offset == 0:
            break
        if next_pos > section_end:
            raise TruncatedData("parameter offset points past the section")
        if next_pos <= rec_start:
            raise MalformedHeader("parameter offset does not advance")
        cur.pos = next_pos
    params: dict[str, dict[str, _Param]] = {}
    for gid, param in raw:
        gname = groups_by_id.get(gid, f"GROUP{gid}")
        params.setdefault(gname, {})[param.name] = param
    return params


def _get(params, group: str, name: str) -> _Param | None:
    return params.get(group, {}).get(name)


def _require(params, group: str, name: str) -> _Param:
    p = _get(params, group, name)
    if p is None:
        raise MissingRequiredParameter(f"{group}:{name}")
    return p


def _chunk_names(base: str) -> list[str]:
    # LABELS, LABELS2, LABELS3, ...: the conventional continuation scheme.
    return [base] + [f"{base}{i}" for i in range(2, 100)]


def _read_chunked_strings(params, group: str, base: str) -> list[str]:
    out: list[str] = []
    for name in _chunk_names(base):
        p = _get(params, group, name)
        if p is None:
            break
        out.extend(p.strings())
    return out


def _read_events(params) -> list[GaitEvent]:
    used_p = _get(params, "EVENT", "USED")
    if used_p is None:
        return []
    used = int(used_p.uint16s()[0]) if used_p.data else 0
    if used == 0:
        return []
    contexts = _require(params, "EVENT", "CONTEXTS").strings()
    labels = _require(params, "EVENT", "LABELS").strings()
    times_p = _require(params, "EVENT", "TIMES")
    times = times_p.floats()
    if len(contexts) < used or len(labels) < used or times.size < 2 * used:
        raise MalformedHeader("EVENT:USED exceeds the stored event arrays")
    pairs = times[: 2 * used].reshape(used, 2)  # (minutes, seconds) of event j
    events = []
    for j in range(used):
        t = 60.0 * float(pairs[j, 0]) + float(pairs[j, 1])
        if not t >= 0:
            raise MalformedHeader(f"event {j + 1} has time {t!r}, not >= 0")
        events.append(map_event(contexts[j], labels[j], t))
    return sorted(events)


def read_c3d(data: bytes) -> Trial:
    """Parse a C3D byte string into a Trial.

    Point coordinates come back in the file's distance units (millimetres
    for files written by this module) with per-frame validity taken from the
    sign of the residual word; analog samples have channel scale, offset,
    and the general scale applied.
    """
    if len(data) < 2:
        raise TruncatedData(f"file has only {len(data)} bytes")
    if data[1] != 0x50:
        raise MalformedHeader(
            f"header magic byte is 0x{data[1]:02x}, expected 0x50"
        )
    if len(data) < BLOCK:
        raise TruncatedData("file shorter than the 512-byte header block")
    param_block = data[0]
    if param_block < 1:
        raise MalformedHeader("parameter section pointer is zero")
    param_start = (param_block - 1) * BLOCK
    if param_start + 4 > len(data):
        raise TruncatedData("parameter section starts past end of file")
    proc = data[param_start + 3]
    if proc != PROC_INTEL:
        raise UnsupportedProcessor(
            f"processor type {proc} not supported (Intel, type 84, only)"
        )
    n_param_blocks = data[param_start + 2]

    (
        hdr_points,
        hdr_analog_per_frame,
        first_frame,
        last_frame,
    ) = struct.unpack_from("<4H", data, 2)
    hdr_data_block, hdr_spf = struct.unpack_from("<2H", data, 16)
    hdr_rate = struct.unpack_from("<f", data, 20)[0]

    params = _parse_params(data, param_start, n_param_blocks)

    used_p = _get(params, "POINT", "USED")
    n_points = used_p.scalar_uint16() if used_p else hdr_points
    rate_p = _get(params, "POINT", "RATE")
    point_rate = rate_p.scalar_float() if rate_p else float(hdr_rate)
    if not 0 < point_rate < math.inf:
        raise MalformedHeader(
            f"point rate {point_rate} is not positive and finite"
        )
    if last_frame < first_frame:
        raise MalformedHeader(
            f"frame range {first_frame}..{last_frame} is empty"
        )
    n_frames = last_frame - first_frame + 1

    scale = 0.0
    if n_points > 0:
        scale = _require(params, "POINT", "SCALE").scalar_float()
    float_storage = scale < 0 or n_points == 0

    ds_p = _get(params, "POINT", "DATA_START")
    data_block = ds_p.scalar_uint16() if ds_p else hdr_data_block
    if data_block < 1:
        raise MalformedHeader("data section pointer is zero")

    used_a = _get(params, "ANALOG", "USED")
    arate_p = _get(params, "ANALOG", "RATE")
    if used_a is not None:
        n_channels = used_a.scalar_uint16()
    elif hdr_spf > 0:
        n_channels = hdr_analog_per_frame // hdr_spf
    else:
        n_channels = 0
    if arate_p is not None:
        analog_rate = arate_p.scalar_float()
    elif hdr_spf > 0:
        analog_rate = point_rate * hdr_spf
    else:
        analog_rate = point_rate
    ratio = analog_rate / point_rate
    spf = round(ratio) if n_channels and math.isfinite(ratio) else 0
    if n_channels and (spf < 1 or abs(analog_rate - spf * point_rate) > 1e-6):
        raise MalformedHeader(
            f"analog rate {analog_rate} is not an integer multiple of the "
            f"point rate {point_rate}"
        )

    frame_words = 4 * n_points + spf * n_channels
    if frame_words == 0:
        raise EmptyTrial("file declares neither point nor analog data")
    data_start = (data_block - 1) * BLOCK
    word_size = 4 if float_storage else 2
    need = data_start + n_frames * frame_words * word_size
    if need > len(data):
        raise TruncatedData(
            f"data section needs {need} bytes, file has {len(data)}"
        )
    dtype = "<f4" if float_storage else "<i2"
    flat = np.frombuffer(data, dtype=dtype, count=n_frames * frame_words,
                         offset=data_start)
    frames = flat.reshape(n_frames, frame_words)

    markers: list[MarkerTrajectory] = []
    if n_points:
        labels = _read_chunked_strings(params, "POINT", "LABELS")
        pts = frames[:, : 4 * n_points].reshape(n_frames, n_points, 4)
        coords = _widen(pts[:, :, :3])
        if not float_storage:
            coords *= abs(scale)
        valid = pts[:, :, 3] >= 0
        seen: set[str] = set()
        for i in range(n_points):
            label = labels[i] if i < len(labels) and labels[i] else f"P{i + 1}"
            while label in seen:
                label = label + "_"
            seen.add(label)
            markers.append(
                MarkerTrajectory(
                    label=label,
                    coords=coords[:, i, :].copy(),
                    valid=valid[:, i].copy(),
                )
            )

    analogs: list[AnalogChannel] = []
    if n_channels:
        a_labels = _read_chunked_strings(params, "ANALOG", "LABELS")
        a_units = _read_chunked_strings(params, "ANALOG", "UNITS")
        gen_p = _get(params, "ANALOG", "GEN_SCALE")
        gen = gen_p.scalar_float() if gen_p else 1.0
        scale_p = _get(params, "ANALOG", "SCALE")
        ch_scale = scale_p.floats() if scale_p else np.ones(n_channels)
        off_p = _get(params, "ANALOG", "OFFSET")
        ch_off = off_p.ints() if off_p else np.zeros(n_channels)
        if ch_scale.size < n_channels or ch_off.size < n_channels:
            raise MalformedHeader("ANALOG scale/offset shorter than ANALOG:USED")
        block = frames[:, 4 * n_points :].reshape(n_frames, spf, n_channels)
        series = _widen(block.reshape(n_frames * spf, n_channels))
        seen = set()
        for c in range(n_channels):
            label = (
                a_labels[c] if c < len(a_labels) and a_labels[c] else f"A{c + 1}"
            )
            while label in seen:
                label = label + "_"
            seen.add(label)
            samples = (series[:, c] - float(ch_off[c])) * float(ch_scale[c]) * gen
            analogs.append(
                AnalogChannel(
                    label=label,
                    samples=samples,
                    rate=analog_rate,
                    units=a_units[c] if c < len(a_units) else "",
                )
            )

    meta: dict[str, str] = {}
    keys_p = _get(params, "META", "KEYS")
    vals_p = _get(params, "META", "VALUES")
    if keys_p is not None and vals_p is not None:
        keys = keys_p.strings()
        vals = vals_p.strings()
        meta = {k: v for k, v in zip(keys, vals) if k}

    return Trial(
        markers=markers,
        analogs=analogs,
        events=_read_events(params),
        point_rate=point_rate,
        analog_rate=analog_rate if analogs else point_rate,
        first_frame=first_frame,
        last_frame=last_frame,
        subject_meta=meta,
    )


# --- writer -----------------------------------------------------------------

_MAX_RECORD_PAYLOAD = 32000  # keep the int16 next-record offset comfortable


def _encode_strings(strings: list[str]) -> tuple[int, bytes]:
    width = max((len(s) for s in strings), default=1)
    width = max(width, 1)
    if width > 255:
        raise ValueError(f"string longer than 255 bytes: {strings!r:.60}")
    payload = b"".join(s.ljust(width).encode("latin-1") for s in strings)
    return width, payload


def _records_for_char(
    group_id: int, base: str, strings: list[str]
) -> list[tuple[bytes, bytes]]:
    """Char parameter records, chunked so each fits dim and offset limits."""
    if not strings:
        return []
    width = max(max((len(s) for s in strings), default=1), 1)
    per = max(1, min(255, _MAX_RECORD_PAYLOAD // max(width, 1)))
    chunks = [strings[i : i + per] for i in range(0, len(strings), per)]
    names = _chunk_names(base)
    if len(chunks) > len(names):
        raise ValueError(f"too many strings for chunked parameter {base}")
    out = []
    for name, chunk in zip(names, chunks):
        w, payload = _encode_strings(chunk)
        out.append(
            _param_record(group_id, name, -1, [w, len(chunk)], payload)
        )
    return out


def _param_record(
    group_id: int, name: str, dtype: int, dims: list[int], payload: bytes
) -> tuple[bytes, bytes]:
    """(head, tail) of one parameter record; offset goes between them."""
    name_b = name.encode("latin-1")
    if not 1 <= len(name_b) <= 127:
        raise ValueError(f"bad parameter name {name!r}")
    for d in dims:
        if not 0 <= d <= 255:
            raise ValueError(f"parameter dimension {d} out of range")
    elem = 1 if dtype == -1 else abs(dtype)
    count = 1
    for d in dims:
        count *= d
    if len(payload) != count * elem:
        raise ValueError(f"payload size mismatch for {name}")
    head = struct.pack("<bb", len(name_b), group_id) + name_b
    tail = (
        struct.pack("<b", dtype)
        + struct.pack("<B", len(dims))
        + bytes(dims)
        + payload
        + b"\x00"  # empty description
    )
    if len(tail) > 32767:
        raise ValueError(f"parameter {name} too large for one record")
    return head, tail


def _group_record(group_id: int, name: str) -> tuple[bytes, bytes]:
    name_b = name.encode("latin-1")
    head = struct.pack("<bb", len(name_b), -group_id) + name_b
    tail = b"\x00"  # empty description
    return head, tail


def _int16_param(group_id, name, values) -> tuple[bytes, bytes]:
    arr = np.asarray(values, dtype="<u2")
    dims = [] if arr.size == 1 else [arr.size]
    return _param_record(group_id, name, 2, dims, arr.tobytes())


def _float_param(group_id, name, values, dims=None) -> tuple[bytes, bytes]:
    arr = np.asarray(values, dtype="<f4")
    if dims is None:
        dims = [] if arr.size == 1 else [arr.size]
    return _param_record(group_id, name, 4, dims, arr.tobytes())


def _assemble_params(records: list[tuple[bytes, bytes]]) -> bytes:
    out = bytearray([1, 0x50, 0, PROC_INTEL])  # block count patched below
    for i, (head, tail) in enumerate(records):
        last = i == len(records) - 1
        offset = 0 if last else len(tail)
        out += head + struct.pack("<h", offset) + tail
    n_blocks = -(-(len(out)) // BLOCK)
    if n_blocks > 255:
        raise ValueError("parameter section exceeds 255 blocks")
    out[2] = n_blocks
    out += b"\x00" * (n_blocks * BLOCK - len(out))
    return bytes(out)


def write_c3d(trial: Trial) -> bytes:
    """Serialize a Trial as an Intel-format C3D byte string.

    Points are written in floating-point storage (POINT:SCALE = -1) in
    millimetres; the residual word is 0 for valid frames and -1 for gaps.
    Event times are stored as 32-bit floats, so sub-microsecond precision
    beyond float32 does not survive a round trip.
    """
    n_points = len(trial.markers)
    if n_points > 65535:
        raise TooManyMarkers(f"{n_points} markers exceed the format's 65535")
    if n_points == 0 and not trial.analogs:
        raise EmptyTrial("trial has neither markers nor analog channels")
    if not 0 <= trial.first_frame <= trial.last_frame <= 65535:
        raise ValueError(
            f"frame range {trial.first_frame}..{trial.last_frame} does not "
            "fit the header's 16-bit fields"
        )
    if len(trial.events) > 255:
        raise ValueError("more than 255 events not supported by this writer")
    n_channels = len(trial.analogs)
    if n_channels > 65535:
        raise ValueError("more than 65535 analog channels")
    spf = trial.samples_per_frame
    n_frames = trial.n_frames

    records: list[tuple[bytes, bytes]] = []
    records.append(_group_record(1, "POINT"))
    records.append(_int16_param(1, "USED", n_points))
    records.append(_float_param(1, "SCALE", -1.0))
    records.append(_float_param(1, "RATE", trial.point_rate))
    if n_frames <= 65535:
        records.append(_int16_param(1, "FRAMES", n_frames))
    data_start_record = len(records)
    records.append(_int16_param(1, "DATA_START", 0))  # patched below
    records.append(
        _param_record(1, "UNITS", -1, [2], b"mm")
    )
    if n_points:
        records.extend(
            _records_for_char(1, "LABELS", [m.label for m in trial.markers])
        )
    if n_channels:
        records.append(_group_record(2, "ANALOG"))
        records.append(_int16_param(2, "USED", n_channels))
        records.append(_float_param(2, "RATE", trial.analog_rate))
        records.append(_float_param(2, "GEN_SCALE", 1.0))
        records.append(_float_param(2, "SCALE", np.ones(n_channels)))
        records.append(_int16_param(2, "OFFSET", np.zeros(n_channels, int)))
        records.append(_param_record(2, "FORMAT", -1, [6], b"SIGNED"))
        records.extend(
            _records_for_char(2, "LABELS", [a.label for a in trial.analogs])
        )
        records.extend(
            _records_for_char(2, "UNITS", [a.units for a in trial.analogs])
        )
    if trial.events:
        events = sorted(trial.events)
        records.append(_group_record(3, "EVENT"))
        records.append(_int16_param(3, "USED", len(events)))
        records.extend(
            _records_for_char(
                3, "CONTEXTS", [CONTEXT_NAMES[e.side] for e in events]
            )
        )
        records.extend(
            _records_for_char(3, "LABELS", [LABEL_NAMES[e.kind] for e in events])
        )
        times = np.zeros((len(events), 2), dtype="<f4")
        times[:, 1] = [e.time for e in events]
        records.append(
            _float_param(3, "TIMES", times.ravel(), dims=[2, len(events)])
        )
    if trial.subject_meta:
        keys = list(trial.subject_meta)
        records.append(_group_record(4, "META"))
        records.extend(_records_for_char(4, "KEYS", keys))
        records.extend(
            _records_for_char(4, "VALUES", [trial.subject_meta[k] for k in keys])
        )

    param_bytes = _assemble_params(records)
    data_block = 2 + len(param_bytes) // BLOCK
    records[data_start_record] = _int16_param(1, "DATA_START", data_block)
    param_bytes = _assemble_params(records)
    assert data_block == 2 + len(param_bytes) // BLOCK

    frame_words = 4 * n_points + spf * n_channels
    frames = np.zeros((n_frames, frame_words), dtype="<f4")
    for i, m in enumerate(trial.markers):
        block = frames[:, 4 * i : 4 * i + 4]
        block[:, :3] = np.where(m.valid[:, None], m.coords, 0.0)
        block[:, 3] = np.where(m.valid, 0.0, -1.0)
    for c, ch in enumerate(trial.analogs):
        frames[:, 4 * n_points + c :: n_channels] = ch.samples.reshape(
            n_frames, spf
        )

    hdr = bytearray(BLOCK)
    hdr[0] = 2
    hdr[1] = 0x50
    struct.pack_into("<4H", hdr, 2, n_points, spf * n_channels,
                     trial.first_frame, trial.last_frame)
    struct.pack_into("<H", hdr, 10, 10)
    struct.pack_into("<f", hdr, 12, -1.0)
    struct.pack_into("<2H", hdr, 16, data_block, spf)
    struct.pack_into("<f", hdr, 20, trial.point_rate)

    data_bytes = frames.tobytes()
    pad = (-len(data_bytes)) % BLOCK
    return bytes(hdr) + param_bytes + data_bytes + b"\x00" * pad
