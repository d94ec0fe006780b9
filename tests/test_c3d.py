"""Round-trip and malformed-input tests for the C3D reader/writer.

Event times are stored as float32 seconds and analog samples as float32
words, so exact round-trip fixtures use dyadic values (multiples of 1/64)
that float32 represents without rounding.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exogait import c3d
from exogait.c3d import map_event, read_c3d, write_c3d
from exogait.errors import (
    EmptyTrial,
    ExogaitError,
    MalformedHeader,
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
