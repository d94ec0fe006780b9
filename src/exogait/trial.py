"""Core record types shared by file readers and the analysis pipeline.

A Trial is the in-memory meeting point of every ingestion path: binary
motion-capture files and plain CSV land in the same structure, and all
downstream feature extraction consumes it without caring where it came from.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


class EventKind(enum.Enum):
    FOOT_STRIKE = "foot_strike"
    FOOT_OFF = "foot_off"


@dataclass
class MarkerTrajectory:
    """One marker's 3-D path.

    Parameters
    ----------
    label : str
        Marker name, unique within a trial.
    coords : ndarray, shape (n_frames, 3)
        Positions in millimetres. Rows flagged invalid hold whatever the
        source put there and carry no coordinate meaning.
    valid : ndarray of bool, shape (n_frames,)
        False marks gaps (occlusions, dropouts).
    """

    label: str
    coords: np.ndarray
    valid: np.ndarray

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("marker label must be nonempty")
        self.coords = np.asarray(self.coords, dtype=float)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.coords.ndim != 2 or self.coords.shape[1] != 3:
            raise ValueError(f"coords must be (n, 3), got {self.coords.shape}")
        if self.valid.shape != (self.coords.shape[0],):
            raise ValueError("valid mask length must match frame count")

    @property
    def n_frames(self) -> int:
        return self.coords.shape[0]


@dataclass
class AnalogChannel:
    """One analog signal (force, precomputed joint angle or moment, ...)."""

    label: str
    samples: np.ndarray
    rate: float
    units: str = ""

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("analog label must be nonempty")
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1:
            raise ValueError("analog samples must be 1-D")
        if not self.rate > 0:
            raise ValueError(f"analog rate must be positive, got {self.rate}")


@dataclass(frozen=True, order=True)
class GaitEvent:
    """A labelled instant: which foot did what, when (seconds)."""

    time: float
    side: Side = field(compare=False)
    kind: EventKind = field(compare=False)

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"event time must be >= 0, got {self.time}")


@dataclass
class Trial:
    """One recorded trial: markers, analog channels, events, metadata.

    Invariants enforced at construction: marker labels are unique and every
    trajectory spans exactly ``last_frame - first_frame + 1`` frames; the
    analog rate is an integer multiple of the point rate and every channel
    holds the matching sample count; events are kept sorted by time.
    """

    markers: list[MarkerTrajectory]
    analogs: list[AnalogChannel]
    events: list[GaitEvent]
    point_rate: float
    analog_rate: float
    first_frame: int
    last_frame: int
    subject_meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.last_frame < self.first_frame:
            raise ValueError(
                f"last_frame {self.last_frame} < first_frame {self.first_frame}"
            )
        if not self.point_rate > 0:
            raise ValueError("point_rate must be positive")
        n = self.n_frames
        seen: set[str] = set()
        for traj in self.markers:
            if traj.label in seen:
                raise ValueError(f"duplicate marker label {traj.label!r}")
            seen.add(traj.label)
            if traj.n_frames != n:
                raise ValueError(
                    f"marker {traj.label!r} has {traj.n_frames} frames, "
                    f"trial has {n}"
                )
        if self.analogs:
            ratio = self.analog_rate / self.point_rate
            if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
                raise ValueError(
                    f"analog_rate {self.analog_rate} is not an integer "
                    f"multiple of point_rate {self.point_rate}"
                )
            per_frame = round(ratio)
            seen.clear()
            for ch in self.analogs:
                if ch.label in seen:
                    raise ValueError(f"duplicate analog label {ch.label!r}")
                seen.add(ch.label)
                if ch.samples.size != n * per_frame:
                    raise ValueError(
                        f"analog {ch.label!r} has {ch.samples.size} samples, "
                        f"expected {n * per_frame}"
                    )
        self.events = sorted(self.events)

    @property
    def n_frames(self) -> int:
        return self.last_frame - self.first_frame + 1

    @property
    def samples_per_frame(self) -> int:
        """Analog samples per point frame (0 when no analog channels)."""
        if not self.analogs:
            return 0
        return round(self.analog_rate / self.point_rate)

    @property
    def duration(self) -> float:
        """Trial length in seconds (frame count over point rate)."""
        return self.n_frames / self.point_rate
