"""Heel-strike detection from an FSR signal and online GC% estimation.

Detection rule: a strike is emitted at the first sample of a run of at
least 3 consecutive samples above half of full scale, provided 0.4 s (the
refractory period) have elapsed since the previous emitted strike; the
signal must fall to half of full scale or below before the next strike can
be considered. The phase estimator converts elapsed time since the last
strike to gait-cycle percent using the mean of the last 3 stride durations
(a population default before any stride has been measured).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TimeWentBackwards

DEFAULT_STRIDE_S = 0.980  # population-average stride duration

# The strike rule: FSR threshold as a fraction of full scale, refractory
# period (s) and the run length that debounces a strike (samples).
_THRESHOLD = 0.5
_REFRACTORY_S = 0.4
_DEBOUNCE_SAMPLES = 3

# Stride durations averaged into the expected stride.
_BUFFER_SIZE = 3


@dataclass(frozen=True)
class PhaseState:
    """Immutable estimator state; update_phase returns a new one."""

    last_hs_time: float | None = None
    stride_buffer: tuple[float, ...] = ()
    last_time: float | None = None

    def __post_init__(self) -> None:
        if len(self.stride_buffer) > _BUFFER_SIZE:
            raise ValueError(
                f"stride_buffer holds at most {_BUFFER_SIZE} durations"
            )
        if any(d <= 0 for d in self.stride_buffer):
            raise ValueError("stride durations must be positive")

    @property
    def expected_stride(self) -> float:
        if self.stride_buffer:
            return sum(self.stride_buffer) / len(self.stride_buffer)
        return DEFAULT_STRIDE_S


def detect_heel_strikes(fsr: np.ndarray, rate: float) -> np.ndarray:
    """Heel-strike times (s) in an FSR series sampled at a fixed rate.

    Feeds the series through StrikeDetector; each strike is timed at the
    start of its run, 2 samples (the debounce less one) before the
    detector fires.
    """
    return (strike_ticks(fsr, rate) - (_DEBOUNCE_SAMPLES - 1)) / rate


def strike_ticks(fsr: np.ndarray, rate: float) -> np.ndarray:
    """Indices of the samples at which StrikeDetector fires on a series."""
    step = StrikeDetector(rate).step
    signal = np.asarray(fsr, dtype=float).tolist()
    return np.flatnonzero([step(v) for v in signal])


class StrikeDetector:
    """Sample-by-sample heel-strike detector (the rule in the module doc).

    step() returns True on the sample at which a run satisfies the debounce
    rule (so the flag lags the run start by 2 samples).
    """

    def __init__(self, rate: float) -> None:
        if not rate > 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = rate
        self._i = 0
        self._run_start: int | None = None
        self._run_len = 0
        self._decided = False
        self._last_emit: float | None = None

    def step(self, value: float) -> bool:
        fired = False
        if value > _THRESHOLD:
            if self._run_start is None:
                self._run_start, self._run_len = self._i, 1
                self._decided = False
            else:
                self._run_len += 1
            if not self._decided and self._run_len >= _DEBOUNCE_SAMPLES:
                self._decided = True
                t = self._run_start / self.rate
                if self._last_emit is None or t - self._last_emit >= _REFRACTORY_S:
                    self._last_emit = t
                    fired = True
        else:
            self._run_start = None
        self._i += 1
        return fired


def update_phase(
    state: PhaseState, now: float, heel_strike: bool
) -> tuple[PhaseState, float]:
    """Advance the estimator to time `now`; returns (new state, GC%).

    On a heel strike the elapsed stride is pushed into the duration buffer
    and GC% resets to 0. Otherwise GC% is elapsed time over the expected
    stride duration, clamped to [0, 100]; before the first strike it is 0.
    """
    if state.last_time is not None and now < state.last_time:
        raise TimeWentBackwards(
            f"time stepped from {state.last_time} back to {now}"
        )
    # PhaseState is built positionally: dataclasses.replace or keyword
    # arguments cost about twice as much, and this runs once per tick.
    if heel_strike:
        buffer = state.stride_buffer
        if state.last_hs_time is not None:
            duration = now - state.last_hs_time
            if duration > 0:
                buffer = (buffer + (duration,))[-_BUFFER_SIZE:]
        return PhaseState(now, buffer, now), 0.0
    new = PhaseState(state.last_hs_time, state.stride_buffer, now)
    if state.last_hs_time is None:
        return new, 0.0
    gc = 100.0 * (now - state.last_hs_time) / state.expected_stride
    return new, min(max(gc, 0.0), 100.0)


def phase_series(time: np.ndarray, strikes: np.ndarray) -> np.ndarray:
    """GC% at every time, as update_phase gives it sample by sample from
    a fresh PhaseState with a heel strike at each index in strikes.

    update_phase runs only at the strikes; between them its GC% formula
    and clamp are evaluated on the array of times, with the same floats.
    """
    gc = np.zeros(len(time))
    state = PhaseState()
    bounds = [*strikes.tolist(), len(time)]
    for a, b in zip(bounds, bounds[1:]):
        state, gc[a] = update_phase(state, float(time[a]), True)
        elapsed = 100.0 * (time[a + 1 : b] - state.last_hs_time)
        gc[a + 1 : b] = np.clip(elapsed / state.expected_stride, 0.0, 100.0)
    return gc
