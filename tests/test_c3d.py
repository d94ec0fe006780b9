"""Round-trip and malformed-input tests for the C3D reader/writer.

Event times are stored as float32 seconds and analog samples as float32
words, so exact round-trip fixtures use dyadic values (multiples of 1/64)
that float32 represents without rounding.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exogait import c3d
from exogait.c3d import map_event, read_c3d, read_c3d_with_labels, write_c3d
from exogait.cli import run
from exogait.errors import (
    EmptyTrial,
    ExogaitError,
    MalformedHeader,
    MissingRequiredParameter,
    TooManyMarkers,
    TruncatedData,
    UnknownEventLabel,
    UnsupportedProcessor,
)
from exogait.trial import (
    AnalogChannel,
    EventKind,
    GaitEvent,
    MarkerTrajectory,
    Side,
    Trial,
    frame_ratio,
)


def _random_trial(rng, n_markers=None, n_frames=None, n_channels=None,
                  n_events=None, spf=None):
    n_markers = int(rng.integers(1, 6)) if n_markers is None else n_markers
    n_frames = int(rng.integers(5, 120)) if n_frames is None else n_frames
    n_channels = int(rng.integers(0, 4)) if n_channels is None else n_channels
    n_events = int(rng.integers(0, 6)) if n_events is None else n_events
    spf = int(rng.integers(1, 5)) if spf is None else spf
    point_rate = float(rng.choice([50.0, 100.0, 120.0, 200.0]))

    markers = []
    for i in range(n_markers):
        coords = rng.uniform(-1000.0, 1000.0, (n_frames, 3))
        valid = rng.random(n_frames) > 0.1
        if not valid.any():
            valid[0] = True
        markers.append(
            MarkerTrajectory(label=f"M{i + 1}", coords=coords, valid=valid)
        )
    analogs = []
    for c in range(n_channels):
        # float32 grid so the word-for-word storage is exact
        samples = rng.normal(0.0, 5.0, n_frames * spf).astype(np.float32)
        analogs.append(
            AnalogChannel(
                label=f"CH{c + 1}",
                samples=samples.astype(float),
                rate=point_rate * spf,
                units="V",
            )
        )
    duration = (n_frames - 1) / point_rate
    times = np.unique(
        np.round(rng.uniform(0.0, max(duration, 0.5), n_events) * 64.0) / 64.0
    )
    events = [
        GaitEvent(
            time=float(t),
            side=Side.LEFT if rng.random() < 0.5 else Side.RIGHT,
            kind=(
                EventKind.FOOT_STRIKE if rng.random() < 0.5 else EventKind.FOOT_OFF
            ),
        )
        for t in times
    ]
    return Trial(
        markers=markers,
        analogs=analogs,
        events=events,
        point_rate=point_rate,
        analog_rate=point_rate * spf if analogs else point_rate,
        first_frame=1,
        last_frame=n_frames,
        subject_meta={"SUBJECT": "S01", "CONDITION": "NoExo"},
    )


def _assert_round_trip(trial):
    back = read_c3d(write_c3d(trial))
    assert back.point_rate == trial.point_rate
    assert back.first_frame == trial.first_frame
    assert back.last_frame == trial.last_frame
    assert [m.label for m in back.markers] == [m.label for m in trial.markers]
    for orig, rec in zip(trial.markers, back.markers):
        np.testing.assert_array_equal(orig.valid, rec.valid)
        np.testing.assert_allclose(
            rec.coords[orig.valid], orig.coords[orig.valid], atol=1e-4
        )
    assert [a.label for a in back.analogs] == [a.label for a in trial.analogs]
    for orig, rec in zip(trial.analogs, back.analogs):
        np.testing.assert_array_equal(rec.samples, orig.samples)
        assert rec.units == orig.units
        assert rec.rate == trial.analog_rate
    assert len(back.events) == len(trial.events)
    for orig, rec in zip(sorted(trial.events), back.events):
        assert rec.time == orig.time
        assert rec.side is orig.side
        assert rec.kind is orig.kind
    assert back.subject_meta == trial.subject_meta


def test_round_trip_randomized():
    rng = np.random.default_rng(1234)
    for _ in range(25):
        _assert_round_trip(_random_trial(rng))


def test_round_trip_markers_only():
    rng = np.random.default_rng(5)
    _assert_round_trip(_random_trial(rng, n_channels=0, n_events=0))


def test_round_trip_analog_only():
    # POINT:USED = 0 is legal: force-plate-style files carry no markers.
    trial = Trial(
        markers=[],
        analogs=[
            AnalogChannel(
                label="FZ1",
                samples=np.arange(40.0),
                rate=200.0,
                units="N",
            )
        ],
        events=[],
        point_rate=100.0,
        analog_rate=200.0,
        first_frame=1,
        last_frame=20,
    )
    back = read_c3d(write_c3d(trial))
    assert back.markers == []
    assert len(back.analogs) == 1
    np.testing.assert_array_equal(back.analogs[0].samples, trial.analogs[0].samples)


def test_event_fixture():
    # Dyadic times survive the float32 (minutes, seconds) storage exactly.
    trial = _random_trial(np.random.default_rng(0), n_events=0)
    trial.events = [
        GaitEvent(0.0, Side.LEFT, EventKind.FOOT_STRIKE),
        GaitEvent(0.5625, Side.LEFT, EventKind.FOOT_OFF),
        GaitEvent(0.984375, Side.LEFT, EventKind.FOOT_STRIKE),
    ]
    back = read_c3d(write_c3d(trial))
    assert [e.time for e in back.events] == [0.0, 0.5625, 0.984375]
    assert [e.kind for e in back.events] == [
        EventKind.FOOT_STRIKE, EventKind.FOOT_OFF, EventKind.FOOT_STRIKE,
    ]
    assert all(e.side is Side.LEFT for e in back.events)


def test_events_written_sorted():
    trial = _random_trial(np.random.default_rng(2), n_events=0)
    trial.events = [
        GaitEvent(1.5, Side.RIGHT, EventKind.FOOT_STRIKE),
        GaitEvent(0.25, Side.LEFT, EventKind.FOOT_STRIKE),
    ]
    back = read_c3d(write_c3d(trial))
    assert [e.time for e in back.events] == [0.25, 1.5]
    assert back.events[0].side is Side.LEFT


def test_near_float32_time_round_trips_approximately():
    # 0.559 is not float32-representable; the trip loses sub-1e-7 precision.
    trial = _random_trial(np.random.default_rng(3), n_events=0)
    trial.events = [GaitEvent(0.559, Side.LEFT, EventKind.FOOT_OFF)]
    back = read_c3d(write_c3d(trial))
    assert back.events[0].time == pytest.approx(0.559, abs=1e-7)


def test_label_chunking_many_markers():
    rng = np.random.default_rng(7)
    n = 300  # forces a LABELS2 record (255 labels per chunk)
    markers = [
        MarkerTrajectory(
            label=f"PT{i:03d}",
            coords=rng.uniform(-10, 10, (3, 3)),
            valid=np.ones(3, dtype=bool),
        )
        for i in range(n)
    ]
    trial = Trial(
        markers=markers, analogs=[], events=[],
        point_rate=100.0, analog_rate=100.0, first_frame=1, last_frame=3,
    )
    back = read_c3d(write_c3d(trial))
    assert [m.label for m in back.markers] == [m.label for m in markers]


def test_too_many_markers_rejected():
    trial = _random_trial(np.random.default_rng(11), n_markers=1)
    # The count check runs before anything touches the data, so a shallow
    # copy with a repeated marker list exercises it without building 65536
    # real trajectories.
    fake = Trial.__new__(Trial)
    fake.__dict__.update(trial.__dict__)
    fake.markers = trial.markers * 65536
    with pytest.raises(TooManyMarkers):
        write_c3d(fake)


def test_empty_trial_rejected_on_write():
    trial = Trial(
        markers=[], analogs=[], events=[],
        point_rate=100.0, analog_rate=100.0, first_frame=1, last_frame=10,
    )
    with pytest.raises(EmptyTrial):
        write_c3d(trial)


def test_too_many_events_rejected():
    trial = _random_trial(np.random.default_rng(13), n_events=0, n_frames=60)
    trial.events = [
        GaitEvent(float(i) / 64.0, Side.LEFT, EventKind.FOOT_STRIKE)
        for i in range(256)
    ]
    with pytest.raises(ValueError):
        write_c3d(trial)


def test_bad_magic_byte():
    data = bytearray(write_c3d(_random_trial(np.random.default_rng(17))))
    data[1] = 0x00
    with pytest.raises(MalformedHeader):
        read_c3d(bytes(data))


def test_unsupported_processor():
    data = bytearray(write_c3d(_random_trial(np.random.default_rng(19))))
    # Processor type lives at byte 3 of the parameter section (block 2).
    data[512 + 3] = 85  # DEC
    with pytest.raises(UnsupportedProcessor):
        read_c3d(bytes(data))


def test_truncated_data_section():
    data = write_c3d(_random_trial(np.random.default_rng(23)))
    with pytest.raises(TruncatedData):
        read_c3d(data[: len(data) - 600])
    with pytest.raises(TruncatedData):
        read_c3d(data[:1])
    with pytest.raises(TruncatedData):
        read_c3d(data[:300])


def test_frame_range_must_fit_header():
    trial = _random_trial(np.random.default_rng(29), n_frames=10)
    trial.first_frame = 65530
    trial.last_frame = 65539
    with pytest.raises(ValueError):
        write_c3d(trial)


def test_map_event_vocabulary():
    e = map_event("Left", "Foot Strike", 1.0)
    assert e.side is Side.LEFT and e.kind is EventKind.FOOT_STRIKE
    e = map_event(" right ", "OFF", 2.0)
    assert e.side is Side.RIGHT and e.kind is EventKind.FOOT_OFF
    assert map_event("LEFT", "strike", 0.0).kind is EventKind.FOOT_STRIKE
    with pytest.raises(UnknownEventLabel):
        map_event("Centre", "Foot Strike", 1.0)
    with pytest.raises(UnknownEventLabel):
        map_event("Left", "Toe Wiggle", 1.0)


def test_header_fields():
    trial = _random_trial(np.random.default_rng(31), n_markers=3, n_frames=50)
    data = write_c3d(trial)
    n_points, _, first, last = struct.unpack_from("<4H", data, 2)
    assert n_points == 3
    assert (first, last) == (1, 50)
    assert data[0] == 2  # parameter section pointer
    assert data[1] == 0x50


def _param_fields(data):
    """{"GROUP:NAME": (ndims offset, payload offset, payload length)} for
    every parameter record in a file write_c3d wrote."""
    pos = 512 * (data[0] - 1) + 4
    groups = {}
    fields = {}
    while True:
        name_len, group_id = struct.unpack_from("<bb", data, pos)
        if name_len == 0 or group_id == 0:
            return fields
        name = data[pos + 2 : pos + 2 + abs(name_len)].decode("latin-1")
        after_name = pos + 2 + abs(name_len)
        offset = struct.unpack_from("<h", data, after_name)[0]
        if group_id < 0:
            groups[-group_id] = name
        else:
            dtype, ndims = struct.unpack_from("<bB", data, after_name + 2)
            payload = after_name + 4 + ndims
            count = int(np.prod(list(data[after_name + 4 : payload])))
            fields[f"{groups[group_id]}:{name}"] = (
                after_name + 3, payload,
                count * (1 if dtype == -1 else abs(dtype)))
        if offset == 0:
            return fields
        pos = after_name + 2 + offset


def test_empty_and_repeated_labels():
    """An empty label reads as P<i> or A<c>, numbered from 1, and a label
    equal to one before it gets '_' appended until it is new."""
    data = bytearray(write_c3d(_random_trial(np.random.default_rng(3),
                                             n_markers=4, n_channels=3)))
    fields = _param_fields(data)
    for name, labels in (("POINT:LABELS", b"A A   A_"),  # M1M2M3M4
                         ("ANALOG:LABELS", b"F     F  ")):  # CH1CH2CH3
        _, start, size = fields[name]
        assert size == len(labels)
        data[start : start + size] = labels
    trial = read_c3d(bytes(data))
    assert [m.label for m in trial.markers] == ["A", "A_", "P3", "A__"]
    assert [a.label for a in trial.analogs] == ["F", "A2", "F_"]


def test_int16_point_storage():
    """POINT:SCALE > 0 stores points as int16 words: coordinates are the
    words times the float32 scale, and a frame is valid when its residual
    word is not negative. The int8 ANALOG:OFFSET is read as signed bytes."""
    rng = np.random.default_rng(5)
    n_points, n_frames, scale = 2, 5, 0.1
    points = rng.integers(-3000, 3000, (n_frames, n_points, 4)).astype("<i2")
    points[..., 3] = rng.choice([-1, 0, 7], (n_frames, n_points))
    points[0, :, 3] = -1, 0  # both kinds of frame in the file
    analog = rng.integers(-500, 500, (n_frames, 1)).astype("<i2")
    records = [
        c3d._group_record(1, "POINT"),
        c3d._int16_param(1, "USED", n_points),
        c3d._float_param(1, "SCALE", scale),
        c3d._float_param(1, "RATE", 100.0),
        c3d._int16_param(1, "DATA_START", 3),
        *c3d._records_for_char(1, "LABELS", ["HEE", "TOE"]),
        c3d._group_record(2, "ANALOG"),
        c3d._int16_param(2, "USED", 1),
        c3d._float_param(2, "RATE", 100.0),
        c3d._float_param(2, "GEN_SCALE", 0.5),
        c3d._float_param(2, "SCALE", [2.0]),
        c3d._param_record(2, "OFFSET", 1, [1], struct.pack("<b", -3)),
        *c3d._records_for_char(2, "LABELS", ["FZ"]),
    ]
    params = c3d._assemble_params(records)
    assert len(params) == c3d.BLOCK  # so the data starts at block 3
    header = bytearray(c3d.BLOCK)
    header[:2] = bytes([2, 0x50])
    struct.pack_into("<4H", header, 2, n_points, 1, 1, n_frames)
    struct.pack_into("<2H", header, 16, 3, 1)
    frames = np.concatenate([points.reshape(n_frames, -1), analog], axis=1)
    trial = read_c3d(bytes(header) + params + frames.tobytes())

    assert [m.label for m in trial.markers] == ["HEE", "TOE"]
    for i, marker in enumerate(trial.markers):
        np.testing.assert_array_equal(
            marker.coords, points[:, i, :3] * float(np.float32(scale)))
        np.testing.assert_array_equal(marker.valid, points[:, i, 3] >= 0)
    [fz] = trial.analogs
    np.testing.assert_array_equal(fz.samples, (analog[:, 0] + 3) * 2.0 * 0.5)


@pytest.mark.parametrize("name",
                         ["POINT:USED", "POINT:DATA_START", "ANALOG:USED"])
def test_empty_count_parameter_is_malformed(name):
    data = bytearray(write_c3d(_random_trial(np.random.default_rng(37),
                                             n_channels=1)))
    ndims, _, _ = _param_fields(data)[name]
    data[ndims] = 2  # dims [low byte, 0]: no elements
    with pytest.raises(MalformedHeader, match="is empty"):
        read_c3d(bytes(data))


def test_negative_event_time_is_malformed():
    data = bytearray(write_c3d(_random_trial(np.random.default_rng(41),
                                             n_events=3)))
    _, times, _ = _param_fields(data)["EVENT:TIMES"]
    data[times + 4 : times + 8] = struct.pack("<f", -0.5)  # event 1 seconds
    with pytest.raises(MalformedHeader, match="event 1 has time -0.5"):
        read_c3d(bytes(data))


@st.composite
def _corrupted_c3d(draw):
    """A small written trial, truncated, with bits flipped (mostly in the
    header and parameter sections), with one parameter's shape or payload
    replaced, or random bytes behind a valid magic byte."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = bytearray(write_c3d(_random_trial(
        rng, n_frames=int(rng.integers(5, 20)), n_events=int(rng.integers(0, 4))
    )))
    mode = draw(st.sampled_from(
        ["truncate", "flip", "shape", "payload", "random"]))
    if mode == "truncate":
        return bytes(data[: draw(st.integers(0, len(data) - 1))])
    if mode == "random":
        head = bytes([draw(st.integers(0, 3)), 0x50])
        return head + draw(st.binary(min_size=0, max_size=3 * 512))
    if mode in ("shape", "payload"):
        ndims, start, size = draw(
            st.sampled_from(list(_param_fields(data).values())))
        if mode == "shape":
            data[ndims] = draw(st.integers(0, 3))
        else:
            data[start : start + size] = draw(
                st.binary(min_size=size, max_size=size))
        return bytes(data)
    params = 512 * (data[0] - 1)
    regions = [(0, 512), (params, params + 512 * data[params + 2]),
               (0, len(data))]
    for _ in range(draw(st.integers(1, 4))):
        lo, hi = draw(st.sampled_from(regions))
        data[draw(st.integers(lo, hi - 1))] ^= 1 << draw(st.integers(0, 7))
    return bytes(data)


@settings(max_examples=500, deadline=None)
@given(data=_corrupted_c3d())
def test_corrupted_bytes_raise_only_toolkit_errors(data):
    try:
        read_c3d(data)
    except ExogaitError:
        pass


# --- column-limited reads ---------------------------------------------------

# Empty and repeated labels, and the names the reader gives them (P1, A2,
# A_, ...), so that requested names meet made-up and suffixed labels.
_STORED_LABELS = ["", "", "A", "A", "A_", "B", "P1", "P2", "A1", "A2"]


@st.composite
def _stored_c3d(draw):
    """(bytes, expected) of a C3D file built word by word: int16 or float32
    storage (float32 with NaN, signalling NaN and infinite words), a
    POINT:SCALE (infinite too), int8 or int16 ANALOG:OFFSET, ANALOG:SCALE
    (zero too) and GEN_SCALE, empty, repeated and missing labels.
    expected holds each marker's (coords, valid) and each channel's samples
    as the reader computed them before it took a column limit: widened and
    scaled as one block."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_points = draw(st.integers(0, 4))
    n_channels = draw(st.integers(0 if n_points else 1, 3))
    n_frames = draw(st.integers(1, 12))
    spf = draw(st.integers(1, 3))
    # A file without points is read as float32 whatever its scale.
    float_storage = draw(st.booleans()) or n_points == 0
    scale = draw(st.sampled_from([0.1, 0.25, 3.0, np.inf]))
    if float_storage:
        scale = -scale
        shape = (n_frames, 4 * n_points + spf * n_channels)
        words = rng.normal(0.0, 300.0, shape).astype("<f4")
        special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0], "<f4")
        hit = rng.random(shape) < 0.1
        words[hit] = rng.choice(special, int(hit.sum()))
        words.view("<u4")[rng.random(shape) < 0.05] = 0x7F800001  # sNaN
        residual = rng.choice(np.array([-1.0, 0.0, 2.5], "<f4"),
                              (n_frames, n_points))
    else:
        shape = (n_frames, 4 * n_points + spf * n_channels)
        words = rng.integers(-32768, 32768, shape).astype("<i2")
        words[rng.random(shape) < 0.1] = 0
        residual = rng.choice(np.array([-1, 0, 7], "<i2"),
                              (n_frames, n_points))
    words[:, 3 : 4 * n_points : 4] = residual
    gen = draw(st.sampled_from([1.0, 0.5, -2.0]))
    ch_scale = rng.choice([1.0, 0.125, -3.0, 0.0], n_channels)
    ch_off = rng.integers(-100, 100, n_channels)
    offset_bytes = 1 if draw(st.booleans()) else 2

    def params(data_block):
        records = [
            c3d._group_record(1, "POINT"),
            c3d._int16_param(1, "USED", n_points),
            c3d._float_param(1, "SCALE", scale),
            c3d._float_param(1, "RATE", 100.0),
            c3d._int16_param(1, "DATA_START", data_block),
            *c3d._records_for_char(1, "LABELS", draw(st.lists(
                st.sampled_from(_STORED_LABELS), max_size=n_points + 1))),
        ]
        if n_channels:
            offsets = ch_off.astype("<i1" if offset_bytes == 1 else "<i2")
            records += [
                c3d._group_record(2, "ANALOG"),
                c3d._int16_param(2, "USED", n_channels),
                c3d._float_param(2, "RATE", 100.0 * spf),
                c3d._float_param(2, "GEN_SCALE", gen),
                c3d._float_param(2, "SCALE", ch_scale),
                c3d._param_record(2, "OFFSET", offset_bytes, [n_channels],
                                  offsets.tobytes()),
                *c3d._records_for_char(2, "LABELS", draw(st.lists(
                    st.sampled_from(_STORED_LABELS),
                    max_size=n_channels + 1))),
            ]
        return c3d._assemble_params(records)

    data_block = 2 + params(0)[2]
    section = params(data_block)
    header = bytearray(c3d.BLOCK)
    header[:2] = bytes([2, 0x50])
    struct.pack_into("<4H", header, 2, n_points, spf * n_channels, 1,
                     n_frames)
    struct.pack_into("<2H", header, 16, data_block, spf)
    data = bytes(header) + section + words.tobytes()

    pts = words[:, : 4 * n_points].reshape(n_frames, n_points, 4)
    with np.errstate(invalid="ignore"):
        coords = pts[:, :, :3].astype(float)
        series = words[:, 4 * n_points :].reshape(
            n_frames * spf, n_channels).astype(float)
        if not float_storage:
            coords *= abs(float(np.float32(scale)))
        scales = ch_scale.astype("<f4").astype(float)
        expected = (
            [(coords[:, i, :].copy(), pts[:, i, 3] >= 0)
             for i in range(n_points)],
            [(series[:, c] - float(ch_off[c])) * float(scales[c]) * gen
             for c in range(n_channels)],
        )
    return data, expected


def _trial_summary(trial):
    """Everything of a trial but its markers' and channels' data."""
    return (trial.point_rate, trial.analog_rate, trial.first_frame,
            trial.last_frame, [(e.time, e.side, e.kind) for e in trial.events],
            trial.subject_meta)


def _marker_bits(markers):
    return [(m.label, m.coords.shape, m.coords.tobytes(), m.valid.tobytes())
            for m in markers]


def _analog_bits(analogs):
    return [(a.label, a.samples.shape, a.samples.tobytes(), a.rate, a.units)
            for a in analogs]


@settings(max_examples=300, deadline=None)
@given(case=_stored_c3d() | st.builds(
    lambda seed: (write_c3d(_random_trial(np.random.default_rng(seed))),
                  None),
    st.integers(0, 2**32 - 1)), data=st.data())
def test_column_limited_read_keeps_the_full_reads_bits(case, data):
    """read_c3d_with_labels(data, columns) holds exactly the markers and
    channels of the full read whose label is in columns, in file order and
    bit for bit (NaN bits included), with the full read's labels, rates,
    events and metadata. The full read, which read_c3d returns, keeps the
    arithmetic of a whole-block read."""
    raw, expected = case
    full, marker_labels, analog_labels = read_c3d_with_labels(raw, None)
    whole = read_c3d(raw)
    assert (_trial_summary(whole), _marker_bits(whole.markers),
            _analog_bits(whole.analogs)) == (
        _trial_summary(full), _marker_bits(full.markers),
        _analog_bits(full.analogs))
    assert [m.label for m in full.markers] == marker_labels
    assert [a.label for a in full.analogs] == analog_labels
    if expected is not None:
        markers, analogs = expected
        assert [(m.coords.tobytes(), m.valid.tobytes())
                for m in full.markers] == \
            [(coords.tobytes(), valid.tobytes()) for coords, valid in markers]
        assert [a.samples.tobytes() for a in full.analogs] == \
            [samples.tobytes() for samples in analogs]
    names = marker_labels + analog_labels + ["bogus", "", "P9", "A_"]
    columns = data.draw(st.lists(st.sampled_from(names), max_size=6)
                        | st.just(()))
    trial, *labels = read_c3d_with_labels(raw, columns)
    assert labels == [marker_labels, analog_labels]
    assert _trial_summary(trial) == _trial_summary(full)
    assert _marker_bits(trial.markers) == _marker_bits(
        [m for m in full.markers if m.label in columns])
    assert _analog_bits(trial.analogs) == _analog_bits(
        [a for a in full.analogs if a.label in columns])


_COLUMN_CHOICES = (None, (), ("M1",), ("CH2", "M3"), ("A1", "P2", "bogus"))


@settings(max_examples=300, deadline=None)
@given(data=_corrupted_c3d() | _stored_c3d().flatmap(
    lambda case: st.integers(0, len(case[0]) - 1).map(
        lambda cut: case[0][:cut])))
def test_column_limit_keeps_every_failure(data):
    """Truncated and corrupted files raise the same exception with the same
    message whatever the column limit, and a file that reads has the same
    labels and trial summary under every limit."""
    outcomes = []
    for columns in _COLUMN_CHOICES:
        try:
            trial, *labels = read_c3d_with_labels(data, columns)
        except Exception as exc:  # noqa: BLE001  (the outcome compared)
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append((labels, _trial_summary(trial)))
    assert outcomes == [outcomes[0]] * len(outcomes)


def test_column_limited_read_keeps_the_trial_rate_check():
    """An analog rate one float32 step above a point-rate multiple misses
    frame_ratio's 1e-9 of the ratio and fails as a MalformedHeader, even
    when no channel is returned, as inspect's read returns none."""
    trial = _random_trial(np.random.default_rng(43), n_channels=2, spf=2)
    trial.point_rate, trial.analog_rate = 0.5, 1.0
    for a in trial.analogs:
        a.rate = 1.0
    data = bytearray(write_c3d(trial))
    _, start, _ = _param_fields(data)["ANALOG:RATE"]
    data[start : start + 4] = np.nextafter(np.float32(1.0),
                                           np.float32(2.0)).tobytes()
    for columns in (None, (), ("M1",)):
        with pytest.raises(MalformedHeader, match="not an integer multiple "
                           "of point_rate 0.5"):
            read_c3d_with_labels(bytes(data), columns)


@pytest.mark.parametrize("analog_rate", [math.inf, -math.inf, math.nan])
def test_frame_ratio_refuses_a_ratio_that_is_not_finite(analog_rate):
    with pytest.raises(ValueError, match=f"analog_rate {analog_rate} is not "
                       "an integer multiple of point_rate 100.0"):
        frame_ratio(analog_rate, 100.0)


@pytest.mark.parametrize("channel_rate, analog_rate", [(50.0, 100.0),
                                                      (100.0, 50.0)])
def test_trial_refuses_a_channel_at_another_rate(channel_rate, analog_rate):
    # Four samples fill the frames at analog_rate, so only the rate is
    # wrong.
    channel = AnalogChannel("CH1", np.zeros(4), channel_rate)
    with pytest.raises(ValueError, match=f"analog 'CH1' has rate "
                       f"{channel_rate}, trial analog_rate is {analog_rate}"):
        Trial(markers=[], analogs=[channel], events=[], point_rate=50.0,
              analog_rate=analog_rate, first_frame=1,
              last_frame=4 * 50 // int(analog_rate))


# float32 rate words: common rates, 1 kHz and above among them, any
# positive finite rate, and rates that are not positive or not finite.
_RATE_WORDS = st.one_of(
    st.sampled_from([50.0, 100.0, 120.0, 1000.0, 1500.0, 2000.0, 4000.0,
                     48000.0, 1e6]),
    st.floats(0.0, exclude_min=True, allow_infinity=False, width=32),
    st.sampled_from([0.0, -0.0, -100.0, math.inf, -math.inf, math.nan]),
).map(np.float32)


@st.composite
def _rate_words(draw):
    """(point rate, analog rate) as float32 words. The analog rate is a word
    of its own, or 1-8 times the point rate rounded to float32, or one
    float32 step either side of that."""
    point = draw(_RATE_WORDS)
    # The multiple overflows to inf for a large point rate, and nextafter
    # of inf overflows again.
    with np.errstate(over="ignore"):
        multiple = np.float32(float(point) * draw(st.integers(1, 8)))
        analog = draw(st.sampled_from([
            multiple, np.nextafter(multiple, np.float32(np.inf)),
            np.nextafter(multiple, np.float32(-np.inf)),
        ]) | _RATE_WORDS)
    return point, analog


@settings(max_examples=300, deadline=None)
@given(words=_rate_words())
def test_reader_takes_exactly_the_rates_frame_ratio_takes(words):
    """With POINT:RATE and ANALOG:RATE overwritten, the reader refuses the
    file exactly when frame_ratio refuses its rates, whatever columns
    holds, with one MalformedHeader naming both rates. A point rate that
    is not positive and finite fails the reader's point-rate check, which
    comes first and applies without analog channels too."""
    # One marker and two channels over 8 frames: the 512-byte data block
    # holds up to 6 analog samples per frame.
    trial = _random_trial(np.random.default_rng(5), n_markers=1, n_frames=8,
                          n_channels=2, n_events=0, spf=2)
    data = bytearray(write_c3d(trial))
    fields = _param_fields(data)
    for field, word in zip(("POINT:RATE", "ANALOG:RATE"), words):
        _, start, _ = fields[field]
        data[start : start + 4] = word.tobytes()
    point_rate, analog_rate = map(float, words)
    spf, refusal = None, None
    if not 0 < point_rate < math.inf:
        refusal = f"point rate {point_rate} is not positive and finite"
    else:
        try:
            spf = frame_ratio(analog_rate, point_rate)
        except ValueError as exc:
            refusal = str(exc)
            assert f"analog_rate {analog_rate} " in refusal
            assert f"point_rate {point_rate}" in refusal
    for columns in (None, (), ("CH1",)):
        try:
            read = read_c3d_with_labels(bytes(data), columns)[0]
        except MalformedHeader as exc:
            assert str(exc) == refusal
        except TruncatedData:
            assert refusal is None and spf > 6
        else:
            assert refusal is None and spf <= 6
            assert (read.point_rate, read.analog_rate) == \
                (point_rate, analog_rate)
            assert all(a.samples.size == 8 * spf for a in read.analogs)


def _without(data, field):
    """The C3D bytes data with the last letter of field's parameter name
    turned to X, so that the reader finds no parameter of that name."""
    ndims_at, _, _ = _param_fields(data)[field]
    data = bytearray(data)
    data[ndims_at - 4] = ord("X")
    return bytes(data)


@pytest.mark.parametrize("field", ["POINT:SCALE", "EVENT:TIMES"])
def test_missing_required_parameter(tmp_path, capsys, field):
    """A file with points but no POINT:SCALE, or with EVENT:USED > 0 but no
    EVENT:TIMES, raises MissingRequiredParameter naming the parameter, and
    inspect prints it as one error line with exit code 2."""
    trial = _random_trial(np.random.default_rng(8), n_markers=2,
                          n_channels=1, n_events=3)
    assert trial.events
    data = _without(write_c3d(trial), field)
    with pytest.raises(MissingRequiredParameter, match=f"^{field}$"):
        read_c3d(data)
    path = tmp_path / "walk.c3d"
    path.write_bytes(data)
    assert run(["inspect", str(path)]) == 2
    assert capsys.readouterr() == ("", f"exogait: error: {field}\n")


def _walk_c3d(path):
    """Markers LANK and RANK, analogs angle and moment at two samples per
    frame, and four left strikes with their foot offs."""
    n, rate = 321, 100.0
    t = np.arange(n) / rate
    angle = 20.0 * np.sin(2.0 * np.pi * t)
    ta = np.arange(2 * n) / (2 * rate)
    markers = [
        MarkerTrajectory("LANK", np.column_stack(
            [0.1 * np.arange(n), np.ones(n), np.full(n, 2.0)]),
            np.ones(n, bool)),
        MarkerTrajectory("RANK", np.column_stack(
            [angle, np.full(n, 3.0), np.full(n, 4.0)]), np.ones(n, bool)),
    ]
    a_angle = np.round(20.0 * np.sin(2.0 * np.pi * ta) * 64) / 64
    analogs = [AnalogChannel("angle", a_angle, 2 * rate),
               AnalogChannel("moment", 0.125 * a_angle, 2 * rate)]
    events = [GaitEvent(s + d, Side.LEFT, kind)
              for s in (0.0, 1.0, 2.0, 3.0)
              for d, kind in ((0.0, EventKind.FOOT_STRIKE),
                              (0.625, EventKind.FOOT_OFF)) if s + d < 3.2]
    trial = Trial(markers=markers, analogs=analogs, events=events,
                  point_rate=rate, analog_rate=2 * rate, first_frame=1,
                  last_frame=n)
    path.write_bytes(write_c3d(trial))
    return read_c3d(path.read_bytes())


def test_c3d_commands_widen_only_their_columns(tmp_path, monkeypatch,
                                               capsys):
    """inspect widens no point or analog word of a C3D trial, and analyze
    widens the words of the marker and the channel it names and no
    others."""
    full = _walk_c3d(tmp_path / "walk.c3d")
    widen = c3d._widen
    widened = []

    def spy(words):
        # Parameters are a few words each; the data holds 321 frames.
        if words.size >= full.n_frames:
            widened.append(words.copy())
        return widen(words)

    monkeypatch.setattr(c3d, "_widen", spy)
    monkeypatch.chdir(tmp_path)
    assert run(["inspect", "walk.c3d"]) == 0
    out = capsys.readouterr().out
    assert "markers: 2 [LANK RANK]\n" in out
    assert "analog: 2 channels at 200.0 Hz [angle moment]\n" in out
    assert widened == []

    assert run(["analyze", "walk.c3d", "--signal", "RANK.x", "--moment",
                "moment", "--out-strides", "s.csv",
                "--out-ensemble", "e.csv"]) == 0
    assert "strides: 3 kept, 0 excluded" in capsys.readouterr().out
    rank = full.markers[1]
    moment = full.analogs[1]
    assert [w.shape for w in widened] == [(321, 3), (321, 2)]
    assert widen(widened[0]).tobytes() == rank.coords.tobytes()
    assert widen(widened[1]).ravel().tobytes() == moment.samples.tobytes()
