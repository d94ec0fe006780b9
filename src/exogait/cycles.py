"""Stride segmentation, 101-sample time normalization, and cycle features.

Sign conventions (documented, since figures cannot be machine-read): joint
angles are degrees with dorsiflexion positive and plantarflexion negative;
moments are Nm with the internal plantarflexor moment positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyResult,
    MissingFootOff,
    MixedVariables,
    StrideOutsideSeries,
)
from .trial import EventKind, GaitEvent, Side

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


@dataclass
class NormalizedCycle:
    """A variable resampled to exactly 101 samples over 0..100 GC%."""

    variable: str
    units: str
    samples: np.ndarray

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.shape != (N_SAMPLES,):
            raise ValueError(
                f"normalized cycle must have exactly {N_SAMPLES} samples, "
                f"got {self.samples.shape}"
            )


@dataclass(frozen=True)
class TemporalFeatures:
    cycle_duration: float
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
    variable: str = "",
    units: str = "",
) -> NormalizedCycle:
    """Resample one stride of a uniform series to 101 gait-cycle samples.

    samples[k] of the result is the linear interpolation of the input at
    time start + k*(end-start)/100; start_time is the time of the series'
    first sample. Stride boundaries falling between frames interpolate,
    consistent with the interior rule.
    """
    y = np.asarray(samples, dtype=float)
    if y.ndim != 1 or y.size < 2:
        raise ValueError("series must be 1-D with at least 2 samples")
    if not rate > 0:
        raise ValueError(f"rate must be positive, got {rate}")
    t_last = start_time + (y.size - 1) / rate
    eps = 1e-9
    if stride.start_time < start_time - eps or stride.end_time > t_last + eps:
        raise StrideOutsideSeries(
            f"stride [{stride.start_time}, {stride.end_time}] outside the "
            f"sampled range [{start_time}, {t_last}]"
        )
    tk = np.linspace(stride.start_time, stride.end_time, N_SAMPLES)
    t = start_time + np.arange(y.size) / rate
    return NormalizedCycle(
        variable=variable, units=units, samples=np.interp(tk, t, y)
    )


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
        cycle_duration=cycle,
        stance_duration=stance,
        swing_duration=swing,
        stance_pct=stance_pct,
        swing_pct=swing_pct,
    )


def cycle_features(
    angle: NormalizedCycle,
    moment: NormalizedCycle | None = None,
) -> CycleFeatures:
    """Kinematic (and optionally kinetic) features of one cycle.

    angle must be in degrees with dorsiflexion positive; peak plantarflexion
    is the negated minimum, so a cycle that never plantarflexes reports a
    negative peak. moment, when given, must have the plantarflexor moment
    positive.
    """
    a = angle.samples
    features = CycleFeatures(
        rom=float(a.max() - a.min()),
        peak_dorsiflexion=float(a.max()),
        peak_plantarflexion=float(-a.min()),
    )
    if moment is not None:
        features.peak_plantarflexion_moment = float(moment.samples.max())
    return features


def ensemble(
    cycles: list[NormalizedCycle],
) -> tuple[NormalizedCycle, NormalizedCycle]:
    """Pointwise mean and sample SD over cycles of one variable."""
    if not cycles:
        raise EmptyResult("ensemble of zero cycles")
    variable = cycles[0].variable
    units = cycles[0].units
    for c in cycles[1:]:
        if c.variable != variable:
            raise MixedVariables(
                f"cannot ensemble {variable!r} with {c.variable!r}"
            )
    arr = np.stack([c.samples for c in cycles])
    mean = arr.mean(axis=0)
    sd = arr.std(axis=0, ddof=1) if len(cycles) > 1 else np.zeros(N_SAMPLES)
    return (
        NormalizedCycle(variable=variable, units=units, samples=mean),
        NormalizedCycle(variable=variable, units=units, samples=sd),
    )
