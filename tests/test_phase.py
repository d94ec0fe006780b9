"""Tests for FSR heel-strike detection and the GC% estimator.

The tick-by-tick detector and estimator in sim_oracle are the independent
reference that strike_ticks and phase_series are held to.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exogait.phase import (
    DEFAULT_STRIDE_S,
    detect_heel_strikes,
    phase_series,
    strike_ticks,
)
from sim_oracle import (
    PhaseState,
    StrikeDetector,
    TimeWentBackwards,
    update_phase,
)


def test_single_burst_emits_at_run_start():
    # Samples 3,4,5 exceed threshold; run start is sample 3 -> t = 0.03 s.
    fsr = np.array([0.0, 0.0, 0.0, 0.8, 0.9, 0.9, 0.9, 0.2, 0.0])
    events = detect_heel_strikes(fsr, 100.0)
    assert events.tolist() == [0.03]


def test_all_zero_signal_no_events():
    events = detect_heel_strikes(np.zeros(500), 100.0)
    assert events.size == 0


def test_refractory_suppresses_second_burst():
    # Bursts starting at t = 0.0 and t = 0.2; the 0.4 s refractory period
    # keeps only one.
    fsr = np.zeros(60)
    fsr[0:5] = 0.9
    fsr[20:25] = 0.9
    events = detect_heel_strikes(fsr, 100.0)
    assert events.tolist() == [0.0]


def test_bursts_beyond_refractory_both_emit():
    fsr = np.zeros(120)
    fsr[0:5] = 0.9
    fsr[80:85] = 0.9
    events = detect_heel_strikes(fsr, 100.0)
    assert events.tolist() == [0.0, 0.8]


@pytest.mark.parametrize("level, second, want", [
    (0.5, 40, []),  # a sample must exceed half of full scale
    (0.5 + 1e-9, 39, [0.0]),  # 0.39 s after a strike is inside 0.4 s
    (0.5 + 1e-9, 40, [0.0, 0.4]),
])
def test_fixed_threshold_and_refractory_edges(level, second, want):
    fsr = np.zeros(100)
    fsr[0:5] = level
    fsr[second : second + 5] = level
    assert detect_heel_strikes(fsr, 100.0).tolist() == want


def test_debounce_rejects_short_runs():
    fsr = np.zeros(50)
    fsr[10:12] = 0.9  # only 2 samples above threshold, 3 needed
    events = detect_heel_strikes(fsr, 100.0)
    assert events.size == 0


def test_rearm_requires_drop_below_threshold():
    # One long run only ever counts once, however long it lasts.
    fsr = np.full(200, 0.9)
    events = detect_heel_strikes(fsr, 100.0)
    assert events.tolist() == [0.0]


def test_scaling_above_threshold_preserves_events():
    rng = np.random.default_rng(3)
    fsr = np.zeros(300)
    for start in (10, 120, 230):
        fsr[start : start + 6] = rng.uniform(0.6, 1.0, 6)
    base = detect_heel_strikes(fsr, 100.0)
    # Scale the above-threshold margin; crossing pattern unchanged.
    scaled = np.where(fsr > 0.5, 0.5 + 2.0 * (fsr - 0.5), fsr)
    assert detect_heel_strikes(scaled, 100.0).tolist() == base.tolist()


def test_streaming_detector_matches_batch():
    rng = np.random.default_rng(42)
    for _ in range(20):
        fsr = np.clip(rng.normal(0.0, 0.05, 1000), 0.0, None)
        n_bursts = int(rng.integers(1, 8))
        starts = np.sort(rng.choice(np.arange(0, 950, 10), n_bursts, replace=False))
        for s in starts:
            fsr[s : s + int(rng.integers(3, 12))] += 0.8
        batch = detect_heel_strikes(fsr, 100.0).tolist()
        det = StrikeDetector(100.0)
        streamed = []
        for i, v in enumerate(fsr):
            if det.step(float(v)):
                # The streaming flag lags the run start by the 3-sample
                # debounce less one.
                streamed.append((i - 2) / 100.0)
        assert streamed == batch


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        detect_heel_strikes(np.zeros(5), 0.0)
    with pytest.raises(ValueError):
        strike_ticks(np.zeros(5), -100.0)


def test_gc_zero_before_first_strike():
    gc = phase_series(np.array([0.5]), np.array([], dtype=int))
    assert gc.tolist() == [0.0]


def test_gc_default_stride_midpoint():
    gc = phase_series(np.array([0.0, 0.490]), np.array([0]))
    assert gc[0] == 0.0
    assert gc[1] == pytest.approx(100.0 * 0.490 / DEFAULT_STRIDE_S)
    assert gc[1] == pytest.approx(50.0)


def test_gc_clamps_at_100():
    gc = phase_series(np.array([0.0, 1.2]), np.array([0]))
    assert gc[1] == 100.0


def test_buffer_mean_replaces_default():
    # One 1.0 s stride replaces the 0.980 s default, so 0.5 s later is
    # exactly 50 %.
    gc = phase_series(np.array([0.0, 1.0, 1.5]), np.array([0, 1]))
    assert gc[1] == 0.0
    assert gc[2] == 50.0


def test_buffer_keeps_last_three():
    # Strides 1.0, 1.1, 1.2 and 1.3 s: the mean of the last three is
    # 1.2 s (all four would give 1.15 s), so 0.6 s after the last strike
    # is 50 %.
    time = np.array([0.0, 1.0, 2.1, 3.3, 4.6, 5.2])
    gc = phase_series(time, np.arange(5))
    assert gc[:5].tolist() == [0.0] * 5
    assert gc[5] == pytest.approx(100.0 * 0.6 / 1.2)


def test_gc_nondecreasing_between_strikes():
    rng = np.random.default_rng(9)
    times = np.cumsum(rng.uniform(0.001, 0.02, 300))
    gc = phase_series(np.concatenate(([0.0], times)), np.array([0]))
    assert gc[0] == 0.0
    assert np.all((gc >= 0.0) & (gc <= 100.0))
    assert np.all(np.diff(gc) >= 0.0)


# The one-step reference's own checks: it refuses a stream that runs
# backwards and a state it could not have reached.


def test_time_went_backwards():
    state = PhaseState()
    state, _ = update_phase(state, 1.0, heel_strike=False)
    with pytest.raises(TimeWentBackwards):
        update_phase(state, 0.5, heel_strike=False)


def test_state_validation():
    with pytest.raises(ValueError):
        PhaseState(stride_buffer=(1.0, -0.5))
    with pytest.raises(ValueError):
        PhaseState(stride_buffer=(1.0, 1.0, 1.0, 1.0))


# The noisy signals cross the 0.5 threshold from either level. The burst
# signals space runs of 1 to 8 samples up to 0.6 s apart at 100 Hz, so
# that strikes fall either side of the refractory period.
_fsr_signals = st.one_of(
    st.lists(st.sampled_from([0.0, 1.0]), max_size=400),
    st.lists(
        st.tuples(st.sampled_from([0.0, 0.9]), st.floats(-0.6, 0.6)),
        max_size=400,
    ).map(lambda samples: [level + noise for level, noise in samples]),
    st.lists(
        st.tuples(st.integers(0, 60), st.integers(1, 8),
                  st.sampled_from([0.5, 0.9])),
        max_size=12,
    ).map(lambda bursts: [value for gap, length, level in bursts
                          for value in [0.0] * gap + [level] * length]),
)


@settings(max_examples=200, deadline=None)
@given(signal=_fsr_signals)
def test_batch_and_streaming_detectors_agree(signal):
    # The streaming detector is the reference in sim_oracle.
    rate = 100.0
    detector = StrikeDetector(rate)
    streamed = [(i - 2) / rate
                for i, v in enumerate(signal) if detector.step(v)]
    assert detect_heel_strikes(np.asarray(signal), rate).tolist() == streamed


@settings(max_examples=200, deadline=None)
@given(signal=_fsr_signals, rate=st.floats(50.0, 600.0))
def test_phase_series_matches_update_phase_per_sample(signal, rate):
    # More than three strides in a draw roll the duration buffer.
    time = np.arange(len(signal)) * (1.0 / rate)
    detector = StrikeDetector(rate)
    state = PhaseState()
    fired, streamed = [], []
    for i, (t, v) in enumerate(zip(time.tolist(), signal)):
        strike = detector.step(v)
        if strike:
            fired.append(i)
        state, gc = update_phase(state, t, strike)
        streamed.append(gc)
    ticks = strike_ticks(np.asarray(signal), rate)
    assert ticks.tolist() == fired
    assert phase_series(time, ticks).tobytes() \
        == np.asarray(streamed, dtype=float).tobytes()
