"""Stride segmentation, 101-sample time normalization, cycle features, and
analyze_trial, the per-trial pipeline that joins them.

Sign conventions (documented, since figures cannot be machine-read): joint
angles are degrees with dorsiflexion positive and plantarflexion negative;
moments are Nm with the internal plantarflexor moment positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyResult, MissingFootOff, StrideOutsideSeries
from .preprocess import fill_gaps, smooth_to_mse
from .trial import EventKind, GaitEvent, Side, Trial

N_SAMPLES = 101  # 0..100 % gait cycle inclusive


@dataclass(frozen=True)
class Stride:
    """One gait cycle: consecutive ipsilateral foot strikes."""

    side: Side
    start_time: float
    end_time: float
    foot_off_time: float | None = None

    def __post_init__(self) -> None:
        if not self.start_time < self.end_time:
            raise ValueError(
                f"stride must have start < end, got "
                f"[{self.start_time}, {self.end_time}]"
            )
        if self.foot_off_time is not None and not (
            self.start_time < self.foot_off_time < self.end_time
        ):
            raise ValueError(
                f"foot off {self.foot_off_time} not inside "
                f"({self.start_time}, {self.end_time})"
            )


@dataclass(frozen=True)
class TemporalFeatures:
    stance_duration: float
    swing_duration: float
    stance_pct: float
    swing_pct: float


@dataclass
class CycleFeatures:
    rom: float
    peak_dorsiflexion: float
    peak_plantarflexion: float
    peak_plantarflexion_moment: float | None = None


def segment_strides(events: list[GaitEvent], side: Side) -> list[Stride]:
    """One Stride per consecutive pair of same-side foot strikes.

    The unique same-side foot off strictly between the strikes is recorded;
    zero or multiple candidates leave foot_off_time None, and the stride is
    kept so callers can count it in quality reports. Opposite-side events
    never affect the result.
    """
    same = sorted(e for e in events if e.side is side)
    strikes = [e.time for e in same if e.kind is EventKind.FOOT_STRIKE]
    offs = [e.time for e in same if e.kind is EventKind.FOOT_OFF]
    strides = []
    for t0, t1 in zip(strikes[:-1], strikes[1:]):
        interior = [t for t in offs if t0 < t < t1]
        strides.append(
            Stride(side=side, start_time=t0, end_time=t1,
                   foot_off_time=interior[0] if len(interior) == 1 else None)
        )
    return strides


def normalize_cycle(
    samples: np.ndarray,
    rate: float,
    stride: Stride,
    start_time: float = 0.0,
) -> np.ndarray:
    """Resample one stride of a uniform series to 101 gait-cycle samples.

    Returns a float array of shape (101,), 0..100 GC% inclusive: entry k is
    the linear interpolation of the input at time start + k*(end-start)/100,
    on np.linspace's grid over the stride times taken as float64 (for
    float32 times np.linspace would build a float32 grid); start_time is
    the time of the series' first sample. Stride boundaries falling
    between frames interpolate, consistent with the interior rule. Raises
    StrideOutsideSeries when the stride reaches more than 1e-9 s past
    either end of the series. analyze_trial resamples all of a series'
    kept strides in one call of the same arithmetic.
    """
    y = np.asarray(samples, dtype=float)
    t_last = _last_time(y, rate, start_time)
    if not _inside(stride, start_time, t_last):
        raise StrideOutsideSeries(
            f"stride [{stride.start_time}, {stride.end_time}] outside the "
            f"sampled range [{start_time}, {t_last}]"
        )
    return _resample(y, rate, start_time, [stride.start_time],
                     [stride.end_time])[0]


def _last_time(y: np.ndarray, rate: float, start_time: float) -> float:
    """Time of the last sample of the series y; raises ValueError for a
    series that cannot be resampled."""
    if y.ndim != 1 or y.size < 2:
        raise ValueError("series must be 1-D with at least 2 samples")
    if not rate > 0:
        raise ValueError(f"rate must be positive, got {rate}")
    return start_time + (y.size - 1) / rate


def _inside(stride: Stride, start_time: float, t_last: float) -> bool:
    """Whether the stride lies within [start_time, t_last], give or take
    1e-9 s of rounding at either end."""
    eps = 1e-9
    return not (stride.start_time < start_time - eps
                or stride.end_time > t_last + eps)


def _resample(y: np.ndarray, rate: float, start_time: float, starts,
              ends) -> np.ndarray:
    """(k, 101) array: row i is y, sampled at rate from start_time, linearly
    interpolated at np.linspace(starts[i], ends[i], 101) in float64. The
    grid repeats linspace's arithmetic row by row, so each row has the bits
    of one call per stride; np.linspace over arrays of starts and ends
    would take its step == 0 branch for every row once one row needs it."""
    t0 = np.asarray(starts, dtype=float)[:, None]
    t1 = np.asarray(ends, dtype=float)[:, None]
    delta = t1 - t0
    step = delta / (N_SAMPLES - 1)
    k = np.arange(N_SAMPLES, dtype=float)
    # Where the step underflows to 0, linspace divides before it scales.
    grid = np.where(step == 0, k / (N_SAMPLES - 1) * delta, k * step)
    grid += t0
    grid[:, -1] = t1[:, 0]
    t = start_time + np.arange(y.size) / rate
    return np.interp(grid, t, y)


def temporal_params(stride: Stride) -> TemporalFeatures:
    """Durations and percentages of one stride.

    The dependent quantities are computed by subtraction (swing as cycle
    minus stance, swing percentage as 100 minus stance percentage) so the
    additive identities hold exactly, not just to rounding.
    """
    if stride.foot_off_time is None:
        raise MissingFootOff(
            f"stride [{stride.start_time}, {stride.end_time}] has no usable "
            "foot-off event"
        )
    cycle = stride.end_time - stride.start_time
    stance = stride.foot_off_time - stride.start_time
    swing = cycle - stance
    stance_pct = 100.0 * stance / cycle
    swing_pct = 100.0 - stance_pct
    return TemporalFeatures(
        stance_duration=stance,
        swing_duration=swing,
        stance_pct=stance_pct,
        swing_pct=swing_pct,
    )


def cycle_features(
    angle: np.ndarray,
    moment: np.ndarray | None = None,
) -> CycleFeatures:
    """Kinematic (and optionally kinetic) features of one normalized cycle.

    angle and moment are 101-sample arrays as normalize_cycle returns them.
    angle must be in degrees with dorsiflexion positive; peak plantarflexion
    is the negated minimum, so a cycle that never plantarflexes reports a
    negative peak. moment, when given, must have the plantarflexor moment
    positive.
    """
    features = CycleFeatures(
        rom=float(angle.max() - angle.min()),
        peak_dorsiflexion=float(angle.max()),
        peak_plantarflexion=float(-angle.min()),
    )
    if moment is not None:
        features.peak_plantarflexion_moment = float(moment.max())
    return features


def ensemble(cycles) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise mean and sample SD (ddof=1) of 101-sample cycles, given as
    a list of arrays or as the rows of a (k, 101) array, as two arrays; the
    SD is all zeros for a single cycle. Raises EmptyResult on no cycles."""
    if len(cycles) == 0:
        raise EmptyResult("ensemble of zero cycles")
    arr = np.stack(cycles)
    mean = arr.mean(axis=0)
    sd = arr.std(axis=0, ddof=1) if len(cycles) > 1 else np.zeros(N_SAMPLES)
    return mean, sd


@dataclass(frozen=True)
class AnalysisResult:
    """What analyze_trial found in one trial.

    strides has one (side, index, stride, excluded) entry per segmented
    stride, side by side in the order asked for: index counts the side's
    strides from 0, and excluded is None for a kept stride, "gap" when a
    series is invalid somewhere in the stride's window, or "outside-series"
    when the window reaches past a series. features and temporal have one
    entry per kept stride, in the same order; temporal is None for a stride
    without a usable foot off. Each ensemble is a (mean, sd) pair of
    101-sample arrays over 0..100 GC% (the SD is zero with one kept
    stride), and moment_ensemble is None without a moment series. smoothing
    is (achieved MSE, target met), or None when smoothing was off.
    """

    strides: list[tuple[Side, int, Stride, str | None]]
    features: list[CycleFeatures]
    temporal: list[TemporalFeatures | None]
    angle_ensemble: tuple[np.ndarray, np.ndarray]
    moment_ensemble: tuple[np.ndarray, np.ndarray] | None
    smoothing: tuple[float, bool] | None


def marker_axis(name: str) -> tuple[str | None, int | None]:
    """(marker label, axis index) that a series name '<label>.x', '.y' or
    '.z' selects, or (None, None) for a name of no such form."""
    if len(name) > 2 and name[-2] == "." and name[-1] in "xyz":
        return name[:-2], "xyz".index(name[-1])
    return None, None


def _series(trial: Trial, name: str, max_gap: int):
    """(samples, rate, validity) of an analog label or of a marker axis
    (see marker_axis); validity is None for an analog channel."""
    for ch in trial.analogs:
        if ch.label == name:
            return np.asarray(ch.samples, float), float(ch.rate), None
    label, axis = marker_axis(name)
    for mk in trial.markers:
        if mk.label == label:
            filled = fill_gaps(mk, max_gap)
            return (filled.coords[:, axis].copy(), float(trial.point_rate),
                    filled.valid)
    raise ValueError(
        f"signal {name!r} matches no analog channel and no marker axis"
    )


def _window_valid(valid, rate: float, stride: Stride, origin: float) -> bool:
    """Whether every sample of the stride's window is valid. A window with
    no sample lies wholly outside the series and counts as valid here, so
    that the range check names it "outside-series"."""
    if valid is None:
        return True
    i0 = max(int(np.floor((stride.start_time - origin) * rate)), 0)
    i1 = min(int(np.ceil((stride.end_time - origin) * rate)), len(valid) - 1)
    return i0 > i1 or bool(valid[i0 : i1 + 1].all())


def analyze_trial(
    trial: Trial,
    events: list[GaitEvent],
    signal: str,
    *,
    moment: str | None = None,
    sides: tuple[Side, ...] = (Side.LEFT, Side.RIGHT),
    max_gap: int = 10,
    target_mse: float = 10.0,
) -> AnalysisResult:
    """Strides, features and ensembles of one trial: what analyze runs.

    signal (the joint angle, degrees) and moment name an analog channel or
    a marker axis '<label>.x', '.y' or '.z'. A marker is gap-filled by
    fill_gaps(marker, max_gap) first; a frame the fill leaves invalid
    excludes every stride whose window holds it. Unless target_mse is 0,
    the signal series is smoothed by smooth_to_mse; the moment series is
    never smoothed. Each side's strides come from segment_strides(events,
    side), with event times in seconds from the trial's frame 1. Each
    stride is first classified (kept, "gap" or "outside-series", with
    normalize_cycle's 1e-9 s range check); then each series resamples all
    kept strides in one call, with the bits of normalize_cycle per stride.
    Raises EmptyResult when events is empty or no stride is kept; lookup,
    fill and smoothing errors pass through.
    """
    if not events:
        raise EmptyResult("trial has no gait events; nothing to segment")
    samples, rate, validity = _series(trial, signal, max_gap)
    origin = (trial.first_frame - 1) / trial.point_rate
    smoothing = None
    if target_mse != 0:
        samples, achieved, met = smooth_to_mse(samples, rate, target_mse)
        smoothing = (achieved, met)
    # (samples, rate, validity) of each series
    series = [(samples, rate, validity)]
    if moment is not None:
        series.append(_series(trial, moment, max_gap))

    strides, kept, temporal = [], [], []
    for side in sides:
        for index, stride in enumerate(segment_strides(events, side)):
            excluded = None
            if not all(_window_valid(valid, r, stride, origin)
                       for _, r, valid in series):
                excluded = "gap"
            elif not all(_inside(stride, origin, _last_time(y, r, origin))
                         for y, r, _ in series):
                excluded = "outside-series"
            strides.append((side, index, stride, excluded))
            if excluded is not None:
                continue
            kept.append(stride)
            try:
                temporal.append(temporal_params(stride))
            except MissingFootOff:
                temporal.append(None)

    if not kept:
        raise EmptyResult("no stride survived quality checks")
    starts = [stride.start_time for stride in kept]
    ends = [stride.end_time for stride in kept]
    cycles = [_resample(y, r, origin, starts, ends) for y, r, _ in series]
    features = [cycle_features(*rows) for rows in zip(*cycles)]
    ensembles = [ensemble(rows) for rows in cycles]
    return AnalysisResult(
        strides=strides,
        features=features,
        temporal=temporal,
        angle_ensemble=ensembles[0],
        moment_ensemble=ensembles[1] if moment is not None else None,
        smoothing=smoothing,
    )
