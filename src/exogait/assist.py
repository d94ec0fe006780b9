"""Four-parameter plantarflexion assistance profile and tension conversion.

The profile is parameterized by three gait-cycle timings (onset, peak, end,
in GC%) and a peak torque in Nm. Each segment is a smoothstep cubic
(3u^2 - 2u^3): zero slope at both segment ends, so the full trajectory is
C1 with flat landings at onset, peak, and end, and its rise/fall midpoints
sit at exactly half the peak.

Torque converts to cable tension through an ankle moment arm. The default
arm is fixed by the device's stated equivalence of 17 kgf of cable tension
to 10 Nm at the ankle: arm = 10 / (17 * 9.80665) m. Whether that
equivalence used standard gravity or 9.81 is not recorded anywhere, so the
constant is overridable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidProfile

G_STANDARD = 9.80665  # m/s^2

DEFAULT_MOMENT_ARM = 10.0 / (17.0 * G_STANDARD)  # 0.059983... m


@dataclass(frozen=True)
class TorqueProfile:
    """Assistance torque trajectory over 0..100 GC%."""

    onset_gc: float
    peak_gc: float
    end_gc: float
    peak_torque: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.onset_gc < self.peak_gc < self.end_gc <= 100.0:
            raise InvalidProfile(
                f"need 0 <= onset < peak < end <= 100, got "
                f"({self.onset_gc}, {self.peak_gc}, {self.end_gc})"
            )
        if not 0 <= self.peak_torque < math.inf:
            raise InvalidProfile(
                f"peak_torque must be >= 0 and finite, got {self.peak_torque}"
            )


DEFAULT_PROFILE = TorqueProfile(
    onset_gc=23.2, peak_gc=50.4, end_gc=62.7, peak_torque=10.0
)


@dataclass(frozen=True)
class TensionConversion:
    moment_arm: float = DEFAULT_MOMENT_ARM  # m

    def __post_init__(self) -> None:
        if not 0 < self.moment_arm < math.inf:
            raise InvalidProfile(
                f"moment_arm must be positive and finite, got {self.moment_arm}"
            )


def _smoothstep(u):
    return u * u * (3.0 - 2.0 * u)


def reference_tensions(
    profile: TorqueProfile, conv: TensionConversion, gc: np.ndarray
) -> np.ndarray:
    """Desired cable tension (N) at every gait-cycle percentage in an array.

    The torque is zero outside (onset, end); it rises as a smoothstep to
    peak_torque on (onset, peak] and falls back on (peak, end), so the
    value at peak_gc is exactly peak_torque. The tension is that torque
    over the moment arm. Each segment is evaluated only on its own entries,
    so nothing outside the profile is computed. A tension too large for a
    float is inf, without a numpy warning. Raises ValueError unless every
    GC% is in [0, 100].
    """
    gc = np.asarray(gc, dtype=float)
    if not np.all((gc >= 0.0) & (gc <= 100.0)):
        raise ValueError("gc must be in [0, 100]")
    torque = np.zeros(gc.shape)
    rise = (gc > profile.onset_gc) & (gc <= profile.peak_gc)
    fall = (gc > profile.peak_gc) & (gc < profile.end_gc)
    with np.errstate(over="ignore"):
        u = (gc[rise] - profile.onset_gc) / (profile.peak_gc - profile.onset_gc)
        torque[rise] = profile.peak_torque * _smoothstep(u)
        u = (profile.end_gc - gc[fall]) / (profile.end_gc - profile.peak_gc)
        torque[fall] = profile.peak_torque * _smoothstep(u)
        return torque / conv.moment_arm
