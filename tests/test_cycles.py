"""Tests for stride segmentation, time normalization, and cycle features.

The temporal fixture (strike 0, off 0.559, strike 0.980) pins stance
0.559 s, swing 0.421 s, stance 57.041% and the exact additive identities.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exogait import cycles
from exogait.cycles import (
    N_SAMPLES,
    Stride,
    analyze_trial,
    cycle_features,
    ensemble,
    normalize_cycle,
    segment_strides,
    temporal_params,
)
from exogait.errors import (
    EmptyResult,
    MissingFootOff,
    StrideOutsideSeries,
)
from exogait.trial import (
    AnalogChannel,
    EventKind,
    GaitEvent,
    MarkerTrajectory,
    Side,
    Trial,
)


def _ev(time, side, kind):
    return GaitEvent(time=time, side=side, kind=kind)


def test_segment_two_strides_with_offs():
    events = [
        _ev(0.0, Side.LEFT, EventKind.FOOT_STRIKE),
        _ev(0.559, Side.LEFT, EventKind.FOOT_OFF),
        _ev(0.980, Side.LEFT, EventKind.FOOT_STRIKE),
        _ev(1.541, Side.LEFT, EventKind.FOOT_OFF),
        _ev(1.960, Side.LEFT, EventKind.FOOT_STRIKE),
    ]
    strides = segment_strides(events, Side.LEFT)
    assert len(strides) == 2
    assert strides[0].start_time == 0.0
    assert strides[0].end_time == 0.980
    assert strides[0].foot_off_time == 0.559
    assert strides[1].foot_off_time == 1.541


def test_single_strike_yields_nothing():
    events = [_ev(0.0, Side.LEFT, EventKind.FOOT_STRIKE)]
    assert segment_strides(events, Side.LEFT) == []


def test_missing_off_is_flagged():
    events = [
        _ev(0.0, Side.LEFT, EventKind.FOOT_STRIKE),
        _ev(0.980, Side.LEFT, EventKind.FOOT_STRIKE),
    ]
    (stride,) = segment_strides(events, Side.LEFT)
    assert stride.foot_off_time is None


def test_two_interior_offs_are_flagged():
    events = [
        _ev(0.0, Side.LEFT, EventKind.FOOT_STRIKE),
        _ev(0.3, Side.LEFT, EventKind.FOOT_OFF),
        _ev(0.6, Side.LEFT, EventKind.FOOT_OFF),
        _ev(0.980, Side.LEFT, EventKind.FOOT_STRIKE),
    ]
    (stride,) = segment_strides(events, Side.LEFT)
    assert stride.foot_off_time is None


def test_opposite_side_events_ignored():
    events = [
        _ev(0.0, Side.LEFT, EventKind.FOOT_STRIKE),
        _ev(0.1, Side.RIGHT, EventKind.FOOT_STRIKE),
        _ev(0.559, Side.LEFT, EventKind.FOOT_OFF),
        _ev(0.7, Side.RIGHT, EventKind.FOOT_OFF),
        _ev(0.980, Side.LEFT, EventKind.FOOT_STRIKE),
    ]
    left = segment_strides(events, Side.LEFT)
    assert len(left) == 1
    assert left[0].foot_off_time == 0.559
    without_right = [e for e in events if e.side is Side.LEFT]
    assert segment_strides(without_right, Side.LEFT) == left


def test_stride_validation():
    with pytest.raises(ValueError):
        Stride(side=Side.LEFT, start_time=1.0, end_time=1.0)
    with pytest.raises(ValueError):
        Stride(side=Side.LEFT, start_time=0.0, end_time=1.0, foot_off_time=1.5)


def test_normalize_ramp():
    # 11 samples 0..10 at 10 Hz spanning exactly one 1 s stride.
    samples = np.arange(11.0)
    stride = Stride(side=Side.LEFT, start_time=0.0, end_time=1.0)
    cyc = normalize_cycle(samples, 10.0, stride)
    assert cyc.shape == (N_SAMPLES,)
    assert cyc[0] == 0.0
    assert cyc[50] == pytest.approx(5.0, abs=1e-12)
    assert cyc[100] == pytest.approx(10.0, abs=1e-12)
    expected = np.linspace(0.0, 10.0, N_SAMPLES)
    np.testing.assert_allclose(cyc, expected, atol=1e-12)


def test_normalize_identity_at_101():
    # A series already sampled at the 101 stride instants is returned as is.
    rng = np.random.default_rng(5)
    y = rng.normal(size=N_SAMPLES)
    stride = Stride(side=Side.LEFT, start_time=0.0, end_time=1.0)
    cyc = normalize_cycle(y, 100.0, stride)
    np.testing.assert_allclose(cyc, y, atol=1e-12)


def test_normalize_constant():
    stride = Stride(side=Side.LEFT, start_time=0.0, end_time=1.0)
    cyc = normalize_cycle(np.full(37, 4.25), 36.0, stride)
    assert np.all(cyc == 4.25)


def test_normalize_commutes_with_affine():
    rng = np.random.default_rng(17)
    y = rng.normal(size=64)
    stride = Stride(side=Side.LEFT, start_time=0.1, end_time=0.55)
    base = normalize_cycle(y, 100.0, stride)
    a, b = 2.5, -7.0
    mapped = normalize_cycle(a * y + b, 100.0, stride)
    np.testing.assert_allclose(mapped, a * base + b, atol=1e-9)


def test_normalize_respects_series_origin():
    samples = np.arange(11.0)
    stride = Stride(side=Side.LEFT, start_time=5.0, end_time=6.0)
    cyc = normalize_cycle(samples, 10.0, stride, start_time=5.0)
    assert cyc[50] == pytest.approx(5.0, abs=1e-12)


def test_stride_outside_series():
    stride = Stride(side=Side.LEFT, start_time=0.0, end_time=2.0)
    with pytest.raises(StrideOutsideSeries):
        normalize_cycle(np.arange(11.0), 10.0, stride)
    early = Stride(side=Side.LEFT, start_time=-0.5, end_time=0.5)
    with pytest.raises(StrideOutsideSeries):
        normalize_cycle(np.arange(11.0), 10.0, early)
    # The range check forgives 1e-9 s of rounding at either end, no more.
    for start, end in ((-5e-10, 1.0), (0.0, 1.0 + 5e-10)):
        normalize_cycle(np.arange(11.0), 10.0,
                        Stride(side=Side.LEFT, start_time=start, end_time=end))
    for start, end in ((-1e-6, 1.0), (0.0, 1.0 + 1e-6)):
        with pytest.raises(StrideOutsideSeries):
            normalize_cycle(np.arange(11.0), 10.0, Stride(
                side=Side.LEFT, start_time=start, end_time=end))


def test_temporal_fixture():
    stride = Stride(
        side=Side.LEFT, start_time=0.0, end_time=0.980, foot_off_time=0.559
    )
    t = temporal_params(stride)
    assert t.stance_duration == pytest.approx(0.559, abs=1e-12)
    assert t.swing_duration == pytest.approx(0.421, abs=1e-12)
    assert t.stance_pct == pytest.approx(100.0 * 0.559 / 0.980, abs=1e-9)
    assert round(t.stance_pct, 3) == 57.041


def test_temporal_identities_exact():
    rng = np.random.default_rng(23)
    for _ in range(100):
        start = float(rng.uniform(0.0, 10.0))
        cycle = float(rng.uniform(0.5, 2.0))
        off = start + cycle * float(rng.uniform(0.2, 0.8))
        stride = Stride(
            side=Side.RIGHT, start_time=start, end_time=start + cycle,
            foot_off_time=off,
        )
        t = temporal_params(stride)
        # Identities hold exactly because swing values are computed by
        # subtraction, not independently.
        assert t.stance_duration + t.swing_duration == \
            stride.end_time - stride.start_time
        assert t.stance_pct + t.swing_pct == 100.0


def test_temporal_even_split():
    stride = Stride(
        side=Side.LEFT, start_time=0.0, end_time=1.0, foot_off_time=0.5
    )
    t = temporal_params(stride)
    assert t.stance_pct == 50.0
    assert t.swing_pct == 50.0


def test_temporal_requires_foot_off():
    stride = Stride(side=Side.LEFT, start_time=0.0, end_time=1.0)
    with pytest.raises(MissingFootOff):
        temporal_params(stride)


def test_features_fixture():
    samples = np.linspace(-15.0, 14.785, N_SAMPLES)
    f = cycle_features(samples)
    assert f.rom == pytest.approx(29.785, abs=1e-12)
    assert f.peak_dorsiflexion == pytest.approx(14.785)
    assert f.peak_plantarflexion == pytest.approx(15.0)


def test_features_constant_angle():
    f = cycle_features(np.full(N_SAMPLES, 3.0))
    assert f.rom == 0.0
    assert f.peak_dorsiflexion == 3.0
    # Negated minimum: a cycle that never plantarflexes reports a negative
    # peak rather than zero.
    assert f.peak_plantarflexion == -3.0


def test_features_moment_optional():
    f = cycle_features(np.zeros(N_SAMPLES))
    assert f.peak_plantarflexion_moment is None
    m = np.linspace(0.0, 1.6, N_SAMPLES)
    f = cycle_features(np.zeros(N_SAMPLES), moment=m)
    assert f.peak_plantarflexion_moment == pytest.approx(1.6)


def test_ensemble_single_cycle():
    c = np.linspace(0.0, 1.0, N_SAMPLES)
    mean, sd = ensemble([c])
    np.testing.assert_array_equal(mean, c)
    np.testing.assert_array_equal(sd, np.zeros(N_SAMPLES))


def test_ensemble_identical_cycles():
    c = np.sin(np.linspace(0.0, 2.0 * np.pi, N_SAMPLES))
    mean, sd = ensemble([c, c.copy(), c.copy()])
    np.testing.assert_allclose(mean, c, atol=1e-15)
    np.testing.assert_allclose(sd, 0.0, atol=1e-15)


def test_ensemble_symmetric_pair():
    c = np.linspace(-2.0, 2.0, N_SAMPLES)
    mean, sd = ensemble([c, -c])
    np.testing.assert_allclose(mean, 0.0, atol=1e-15)
    np.testing.assert_allclose(sd, np.abs(c) * np.sqrt(2.0), atol=1e-12)


def test_ensemble_known_sd():
    mean, sd = ensemble([np.zeros(N_SAMPLES), np.full(N_SAMPLES, 2.0)])
    np.testing.assert_allclose(mean, 1.0)
    np.testing.assert_allclose(sd, np.sqrt(2.0))


def test_ensemble_empty():
    with pytest.raises(EmptyResult):
        ensemble([])


# --- analyze_trial ------------------------------------------------------


def _walk():
    """321 frames at 100 Hz: marker ANK with a 2-frame gap (frames 30-31)
    and a 15-frame one (150-164), analogs angle and moment; left strikes
    each second, right strikes at 2.2 s and at 3.5 s, past the series."""
    t = np.arange(321) / 100.0
    z = 10.0 * np.sin(2.0 * np.pi * t)
    valid = np.ones(t.size, dtype=bool)
    valid[30:32] = valid[150:165] = False
    marker = MarkerTrajectory("ANK", np.column_stack([t, -t, z]), valid)
    analogs = [AnalogChannel("angle", 2.0 * z, 100.0),
               AnalogChannel("moment", 0.1 * z, 100.0)]
    events = [_ev(float(k), Side.LEFT, EventKind.FOOT_STRIKE)
              for k in range(4)]
    events += [_ev(0.6, Side.LEFT, EventKind.FOOT_OFF),
               _ev(1.6, Side.LEFT, EventKind.FOOT_OFF),
               _ev(2.2, Side.RIGHT, EventKind.FOOT_STRIKE),
               _ev(3.5, Side.RIGHT, EventKind.FOOT_STRIKE)]
    trial = Trial(markers=[marker], analogs=analogs, events=[],
                  point_rate=100.0, analog_rate=100.0, first_frame=1,
                  last_frame=321)
    return trial, sorted(events)


def test_analyze_trial_names_each_exclusion():
    trial, events = _walk()
    result = analyze_trial(trial, events, "ANK.z", moment="moment",
                           target_mse=0)
    assert [(side, index, excluded)
            for side, index, _, excluded in result.strides] == [
        (Side.LEFT, 0, None), (Side.LEFT, 1, "gap"), (Side.LEFT, 2, None),
        (Side.RIGHT, 0, "outside-series"),
    ]
    assert [stride.start_time for _, _, stride, _ in result.strides] == \
        [0.0, 1.0, 2.0, 2.2]
    assert len(result.features) == 2
    assert result.features[0].peak_plantarflexion_moment is not None
    assert result.temporal[0].stance_duration == pytest.approx(0.6)
    assert result.temporal[1] is None  # no foot off in [2, 3]
    assert result.smoothing is None
    mean, sd = result.angle_ensemble
    assert mean.shape == sd.shape == (N_SAMPLES,)


@pytest.mark.parametrize("signal", ["ANK.z", "angle"])
def test_stride_wholly_outside_series_is_outside_series(signal):
    """A stride that ends before the first frame or starts after the last
    is "outside-series" on a marker signal as on an analog one, not
    "gap"."""
    t = 1.0 + np.arange(301) / 100.0  # frames 101-401: 1.0 s to 4.0 s
    z = 10.0 * np.sin(2.0 * np.pi * t)
    marker = MarkerTrajectory("ANK", np.column_stack([t, -t, z]),
                              np.ones(t.size, dtype=bool))
    trial = Trial(markers=[marker],
                  analogs=[AnalogChannel("angle", 2.0 * z, 100.0)],
                  events=[], point_rate=100.0, analog_rate=100.0,
                  first_frame=101, last_frame=401)
    events = [_ev(time, Side.LEFT, EventKind.FOOT_STRIKE)
              for time in (0.2, 0.7, 1.2, 2.2, 3.2, 4.2, 4.8)]
    result = analyze_trial(trial, events, signal, target_mse=0)
    assert [(stride.start_time, excluded)
            for _, _, stride, excluded in result.strides] == [
        (0.2, "outside-series"), (0.7, "outside-series"), (1.2, None),
        (2.2, None), (3.2, "outside-series"), (4.2, "outside-series"),
    ]


def test_analyze_trial_smooths_the_signal_only():
    trial, events = _walk()
    result = analyze_trial(trial, events, "angle", moment="moment",
                           sides=(Side.LEFT,), target_mse=1.0)
    achieved, met = result.smoothing
    assert met and achieved == pytest.approx(1.0, rel=0.05)
    # Without a marker series, no window is invalid.
    assert [e[3] for e in result.strides] == [None, None, None]
    unsmoothed = analyze_trial(trial, events, "angle", moment="moment",
                               sides=(Side.LEFT,), target_mse=0)
    assert unsmoothed.moment_ensemble[0].tobytes() == \
        result.moment_ensemble[0].tobytes()
    assert unsmoothed.angle_ensemble[0].tobytes() != \
        result.angle_ensemble[0].tobytes()
    assert analyze_trial(trial, events, "angle").moment_ensemble is None


def test_analyze_trial_errors():
    trial, events = _walk()
    with pytest.raises(EmptyResult, match="no gait events"):
        analyze_trial(trial, [], "angle")
    with pytest.raises(EmptyResult, match="no stride survived"):
        analyze_trial(trial, events, "angle", sides=(Side.RIGHT,),
                      target_mse=0)
    with pytest.raises(ValueError, match="matches no analog channel"):
        analyze_trial(trial, events, "ANK.w")
    with pytest.raises(ValueError, match="target_mse must be > 0"):
        analyze_trial(trial, events, "angle", target_mse=-1.0)


# --- batched resampling ------------------------------------------------


def _linspace_row(y, rate, start_time, t0, t1):
    """One stride resampled the way normalize_cycle did it per call."""
    t = start_time + np.arange(y.size) / rate
    return np.interp(np.linspace(t0, t1, N_SAMPLES), t, y)


@st.composite
def _resample_case(draw):
    """(y, rate, start_time, strides as (start, end) pairs): strides inside
    the series, of zero length, of a length whose hundredth underflows to
    0 or is subnormal, exactly 1e-9 s past either end, and further out."""
    n = draw(st.integers(2, 40))
    rate = draw(st.sampled_from([100.0, 120.0, 7.0, 1e3]))
    start_time = draw(st.sampled_from([0.0, 0.0, 0.03, 2.5, 1e-310]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = rng.normal(0.0, 10.0, n)
    t_last = start_time + (n - 1) / rate
    inside = st.floats(start_time, t_last)
    ends = [start_time, t_last]
    edge = [start_time - 1e-9, t_last + 1e-9]
    beyond = [start_time - 2e-9, start_time - 1e-6, t_last + 2e-9,
              t_last + 1e-6]
    tiny = st.tuples(st.sampled_from([0.0, 5e-324, 1e-320, start_time]),
                     st.integers(0, 12000)).map(
        lambda s: (s[0], s[0] + s[1] * 5e-324))
    pair = st.one_of(
        st.tuples(inside, inside).map(sorted),
        inside.map(lambda s: (s, s)),
        tiny,
        st.tuples(st.sampled_from(ends + edge), st.sampled_from(ends + edge)),
        st.tuples(st.sampled_from(ends + edge + beyond) | inside,
                  st.sampled_from(ends + edge + beyond) | inside),
    )
    strides = draw(st.lists(pair, min_size=1, max_size=8))
    return y, rate, start_time, [tuple(map(float, p)) for p in strides]


@settings(max_examples=400, deadline=None)
@given(case=_resample_case())
def test_batched_resampling_matches_linspace_per_stride(case):
    """One _resample call over k strides gives, row by row, the bits of
    np.linspace plus np.interp per stride, for any start and end (the grid
    keeps linspace's step == 0 branch). normalize_cycle gives the same row
    for a stride within 1e-9 s of the series and raises StrideOutsideSeries
    for one further out."""
    y, rate, start_time, strides = case
    rows = cycles._resample(y, rate, start_time, [s for s, _ in strides],
                            [e for _, e in strides])
    assert rows.shape == (len(strides), N_SAMPLES)
    t_last = start_time + (y.size - 1) / rate
    for row, (t0, t1) in zip(rows, strides):
        want = _linspace_row(y, rate, start_time, t0, t1)
        assert row.tobytes() == want.tobytes()
        if not t0 < t1:
            continue
        stride = Stride(side=Side.LEFT, start_time=t0, end_time=t1)
        if t0 >= start_time - 1e-9 and t1 <= t_last + 1e-9:
            got = normalize_cycle(y, rate, stride, start_time=start_time)
            assert got.shape == (N_SAMPLES,)
            assert got.tobytes() == want.tobytes()
        else:
            with pytest.raises(StrideOutsideSeries):
                normalize_cycle(y, rate, stride, start_time=start_time)


def test_underflowing_step_takes_linspace_branch():
    """A stride shorter than 100 of the smallest subnormal steps by 0, and
    linspace then divides before it scales; the rows next to it keep the
    multiply branch."""
    y = np.arange(11.0)
    starts, ends = [0.0, 0.0, 0.2], [30 * 5e-324, 0.0, 0.7]
    rows = cycles._resample(y, 10.0, 0.0, starts, ends)
    for row, t0, t1 in zip(rows, starts, ends):
        assert row.tobytes() == _linspace_row(y, 10.0, 0.0, t0, t1).tobytes()


def test_normalize_cycle_takes_stride_times_as_float64():
    """float32 stride times are resampled on the float64 grid of their
    values, not on the float32 grid np.linspace would build from them."""
    y = np.sin(np.arange(200.0) / 7.0)
    t0, t1 = np.float32(0.1), np.float32(1.3)
    got = normalize_cycle(y, 100.0, Stride(Side.LEFT, t0, t1))
    want = _linspace_row(y, 100.0, 0.0, float(t0), float(t1))
    assert got.tobytes() == want.tobytes()


def test_analyze_trial_keeps_strides_within_tolerance():
    """Strides reaching exactly 1e-9 s past either end of the series are
    kept, with the bits of normalize_cycle; 2e-9 s is "outside-series"."""
    rate, n = 100.0, 301
    origin = 0.1  # first frame 11
    t_last = origin + (n - 1) / rate
    t = origin + np.arange(n) / rate
    angle = AnalogChannel("angle", 10.0 * np.sin(2.0 * np.pi * t), rate)
    trial = Trial(markers=[], analogs=[angle], events=[], point_rate=rate,
                  analog_rate=rate, first_frame=11, last_frame=10 + n)
    left = [origin - 1e-9, 1.0, 2.0, t_last + 1e-9]
    right = [origin - 2e-9, 0.5, 1.5, t_last + 2e-9]
    events = sorted(
        [_ev(x, Side.LEFT, EventKind.FOOT_STRIKE) for x in left]
        + [_ev(x, Side.RIGHT, EventKind.FOOT_STRIKE) for x in right])
    result = analyze_trial(trial, events, "angle", target_mse=0)
    assert [excluded for *_, excluded in result.strides] == [
        None, None, None, "outside-series", None, "outside-series"]
    kept = [stride for *_, stride, excluded in result.strides
            if excluded is None]
    rows = [normalize_cycle(angle.samples, rate, stride, start_time=origin)
            for stride in kept]
    for got, want in zip(result.angle_ensemble, ensemble(rows)):
        assert got.tobytes() == want.tobytes()
    assert [f.rom for f in result.features] == [
        float(row.max() - row.min()) for row in rows]
