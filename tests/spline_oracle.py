"""Reference gap filler for the preprocess tests.

fill_gaps fits its own not-a-knot cubic spline. This module keeps the form
it replaced: scipy's CubicSpline through every valid frame, evaluated once
per admissible gap. The library function must return the same coordinates
and validity byte for byte, and raise the same exception with the same
message.
"""

import numpy as np
from scipy.interpolate import CubicSpline

from exogait.errors import TooFewValidFrames
from exogait.trial import MarkerTrajectory


def oracle_fill_gaps(series, max_gap):
    """Same arguments and result as fill_gaps."""
    valid_idx = np.flatnonzero(series.valid)
    if valid_idx.size < 4:
        raise TooFewValidFrames(
            f"{valid_idx.size} valid frames in {series.label!r}; "
            "need at least 4 to anchor a cubic spline"
        )
    coords = series.coords.copy()
    valid = series.valid.copy()
    spline = CubicSpline(valid_idx, series.coords[valid_idx, :], axis=0)
    for a, b in zip(valid_idx[:-1], valid_idx[1:]):
        gap = b - a - 1
        if 0 < gap <= max_gap:
            idx = np.arange(a + 1, b)
            coords[idx, :] = spline(idx)
            valid[idx] = True
    return MarkerTrajectory(label=series.label, coords=coords, valid=valid)
