"""Stride segmentation, 101-sample time normalization, cycle features, and
analyze_trial, the per-trial pipeline that joins them.

Sign conventions (documented, since figures cannot be machine-read): joint
angles are degrees with dorsiflexion positive and plantarflexion negative;
moments are Nm with the internal plantarflexor moment positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyResult, StrideOutsideSeries
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


def temporal_params(strides: list[Stride]) -> dict[str, np.ndarray]:
    """Durations and percentages of the strides, one float64 array each by
    strides CSV column, NaN in the stance and swing arrays for a stride
    without a usable foot off (its foot_off_time is None).

    The dependent quantities are computed by subtraction (swing as cycle
    minus stance, swing percentage as 100 minus stance percentage) so the
    additive identities hold exactly, not just to rounding.
    """
    start = np.array([s.start_time for s in strides], dtype=float)
    end = np.array([s.end_time for s in strides], dtype=float)
    off = np.array([np.nan if s.foot_off_time is None else s.foot_off_time
                    for s in strides], dtype=float)
    cycle = end - start
    stance = off - start
    stance_pct = 100.0 * stance / cycle
    return {"cycle_duration": cycle, "stance_duration": stance,
            "swing_duration": cycle - stance, "stance_pct": stance_pct,
            "swing_pct": 100.0 - stance_pct}


def cycle_features(
    angle: np.ndarray,
    moment: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Kinematic (and optionally kinetic) features of normalized cycles, an
    array by strides CSV column (peak_plantarflexion_moment with a moment).

    angle and moment are (k, 101) arrays, one cycle per row. angle must be
    in degrees with dorsiflexion positive; peak plantarflexion is the
    negated minimum, so a cycle that never plantarflexes reports a negative
    peak. moment must have the plantarflexor moment positive. A NaN sample
    makes its row's features NaN.
    """
    top, bottom = angle.max(axis=1), angle.min(axis=1)
    features = {"rom": top - bottom, "peak_dorsiflexion": top,
                "peak_plantarflexion": -bottom}
    if moment is not None:
        features["peak_plantarflexion_moment"] = moment.max(axis=1)
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

    strides has one (index, stride, excluded) entry per segmented stride,
    side by side in the order asked for: index counts the strides of
    stride.side from 0, and excluded is None for a kept stride, "gap" when
    a series is invalid somewhere in the stride's window, or
    "outside-series" when the window reaches past a series. features
    holds what cycle_features and then temporal_params give over the kept
    strides, in the order of strides: the strides CSV's number columns,
    the moment's only with a moment series. Each ensemble is a (mean, sd)
    pair of 101-sample arrays over 0..100 GC% (the SD is zero with one
    kept stride), and moment_ensemble is None without a moment series.
    smoothing is (achieved MSE, target met), or None when smoothing was
    off.
    """

    strides: list[tuple[int, Stride, str | None]]
    features: dict[str, np.ndarray]
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
            return (np.asarray(ch.samples, float), float(trial.analog_rate),
                    None)
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
    kept strides in one call, with the bits of normalize_cycle per stride,
    and cycle_features and temporal_params run once over them. Raises
    EmptyResult when events is empty or no stride is kept; lookup, fill and
    smoothing errors pass through.
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

    strides, kept = [], []
    for side in sides:
        for index, stride in enumerate(segment_strides(events, side)):
            excluded = None
            if not all(_window_valid(valid, r, stride, origin)
                       for _, r, valid in series):
                excluded = "gap"
            elif not all(_inside(stride, origin, _last_time(y, r, origin))
                         for y, r, _ in series):
                excluded = "outside-series"
            strides.append((index, stride, excluded))
            if excluded is None:
                kept.append(stride)

    if not kept:
        raise EmptyResult("no stride survived quality checks")
    starts = [stride.start_time for stride in kept]
    ends = [stride.end_time for stride in kept]
    cycles = [_resample(y, r, origin, starts, ends) for y, r, _ in series]
    ensembles = [ensemble(rows) for rows in cycles]
    return AnalysisResult(
        strides=strides,
        features={**cycle_features(*cycles), **temporal_params(kept)},
        angle_ensemble=ensembles[0],
        moment_ensemble=ensembles[1] if moment is not None else None,
        smoothing=smoothing,
    )
