"""Heel-strike detection from an FSR signal and GC% estimation.

Detection rule: a strike is emitted at the first sample of a run of at
least 3 consecutive samples above half of full scale, provided 0.4 s (the
refractory period) have elapsed since the previous emitted strike; the
signal must fall to half of full scale or below before the next strike can
be considered. The phase estimator converts elapsed time since the last
strike to gait-cycle percent using the mean of the last 3 stride durations
(a population default before any stride has been measured).

Both rules run on whole arrays. The test suite keeps a tick-by-tick form
of each in its reference closed loop, and holds these to it.
"""

from __future__ import annotations

import numpy as np

DEFAULT_STRIDE_S = 0.980  # population-average stride duration

# The strike rule: FSR threshold as a fraction of full scale, refractory
# period (s) and the run length that debounces a strike (samples).
_THRESHOLD = 0.5
_REFRACTORY_S = 0.4
_DEBOUNCE_SAMPLES = 3

# Stride durations averaged into the expected stride.
_BUFFER_SIZE = 3


def detect_heel_strikes(fsr: np.ndarray, rate: float) -> np.ndarray:
    """Heel-strike times (s) in an FSR series sampled at a fixed rate.

    Each strike is timed at the start of its run, 2 samples (the debounce
    less one) before the tick strike_ticks reports for it.
    """
    return (strike_ticks(fsr, rate) - (_DEBOUNCE_SAMPLES - 1)) / rate


def strike_ticks(fsr: np.ndarray, rate: float) -> np.ndarray:
    """Indices of the samples at which a strike is decided: the last sample
    of the debounce, 2 samples after the start of its run."""
    if not rate > 0:
        raise ValueError(f"rate must be positive, got {rate}")
    above = np.asarray(fsr, dtype=float) > _THRESHOLD
    # The mask changes value at each run's start and one past its end.
    edges = np.flatnonzero(np.diff(np.concatenate(([False], above, [False]))))
    starts, ends = edges[0::2], edges[1::2]
    ticks = []
    last = None
    for start in starts[ends - starts >= _DEBOUNCE_SAMPLES].tolist():
        t = start / rate
        if last is None or t - last >= _REFRACTORY_S:
            last = t
            ticks.append(start + _DEBOUNCE_SAMPLES - 1)
    return np.array(ticks, dtype=np.intp)


def phase_series(time: np.ndarray, strikes: np.ndarray) -> np.ndarray:
    """GC% at every time, with a heel strike at each index in strikes.

    The times increase. GC% is 0 before the first strike and at each
    strike. Each strike pushes the positive time since the previous one
    into a buffer of the last 3 stride durations; between strikes GC% is
    the elapsed time over the buffer's mean (the population default while
    it is empty), clipped to [0, 100].
    """
    gc = np.zeros(len(time))
    buffer: list[float] = []
    last = None
    bounds = [*strikes.tolist(), len(time)]
    for a, b in zip(bounds, bounds[1:]):
        now = float(time[a])
        if last is not None and now > last:
            buffer = (buffer + [now - last])[-_BUFFER_SIZE:]
        last = now
        expected = sum(buffer) / len(buffer) if buffer else DEFAULT_STRIDE_S
        elapsed = 100.0 * (time[a + 1 : b] - last)
        gc[a + 1 : b] = np.clip(elapsed / expected, 0.0, 100.0)
    return gc
