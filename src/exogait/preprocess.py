"""Gap filling and penalized smoothing for uniformly sampled series.

The smoother solves min_f ||y - f||^2 + lam * P(f) with the discrete
third-difference roughness penalty P(f) = h * sum((d3 f / h^3)^2), the
discrete analogue of the quintic smoothing splines used on marker data.
Instead of picking lam by cross-validation, lam is bisected until the
residual mean squared error hits a prescribed target, which is how a fixed
"mean square error" setting behaves in standard gait software.
"""

from __future__ import annotations

import functools
import os
import sys

import numpy as np

from .errors import SeriesTooShort, TooFewValidFrames
from .trial import MarkerTrajectory

# The LAPACK routines come from scipy's extension module, loaded by
# scipy_extension() when first called: most commands neither smooth nor
# fill gaps, and importing scipy.linalg would take most of a cold analyze.

LAMBDA_LO = 1e-12
LAMBDA_HI = 1e12
# Bisection steps smooth_to_mse takes at most, and the relative tolerance
# on the target MSE within which it counts the target as met.
_MAX_ITERATIONS = 200
_MSE_TOLERANCE = 0.05


def fill_gaps(series: MarkerTrajectory, max_gap: int) -> MarkerTrajectory:
    """Fill interior gaps of up to max_gap frames by cubic interpolation.

    The interpolant is the not-a-knot cubic spline through every valid
    frame: its knot slopes come from one tridiagonal solve (LAPACK gtsv),
    and it gives the same bits as scipy's CubicSpline would. Valid frames
    are returned bit-identical; only interior gap frames of admissible
    length get new coordinates. Leading and trailing gaps stay invalid (no
    extrapolation), as do interior gaps longer than max_gap. With no
    admissible gap, no spline is fitted. max_gap must be >= 1.
    """
    if max_gap < 1:
        raise ValueError(f"max_gap must be >= 1, got {max_gap}")
    valid_idx = np.flatnonzero(series.valid)
    if valid_idx.size < 4:
        raise TooFewValidFrames(
            f"{valid_idx.size} valid frames in {series.label!r}; "
            "need at least 4 to anchor a cubic spline"
        )
    coords = series.coords.copy()
    valid = series.valid.copy()
    gap = np.diff(valid_idx) - 1
    fillable = (gap > 0) & (gap <= max_gap)
    if fillable.any():
        knots = series.coords[valid_idx, :]
        if not np.isfinite(knots).all():
            raise ValueError(
                f"non-finite coordinates in valid frames of {series.label!r}"
            )
        idx = np.concatenate([
            np.arange(a + 1, b)
            for a, b in zip(valid_idx[:-1][fillable], valid_idx[1:][fillable])
        ])
        coords[idx, :] = _not_a_knot(valid_idx.astype(float), knots, idx)
        valid[idx] = True
    return MarkerTrajectory(label=series.label, coords=coords, valid=valid)


@functools.cache
def scipy_extension(subpackage: str, name: str):
    """scipy's extension module scipy.<subpackage>.<name>, without the
    package init of scipy.<subpackage>, which takes longer than most
    commands' work.

    The file is loaded under its real name beneath a bare stand-in for the
    package (only its __path__ and spec), through which the extension
    imports its sibling extensions. The stand-in and the extension's own
    sys.modules entry are then dropped, each if still registered, so that
    a later import of the real package loads the extension again, gets the
    same routine objects and binds it as the package's attribute. The
    attribute scipy.<subpackage> is never read: scipy's lazy __getattr__
    would import the whole package. An imported package or extension is
    reused; where the file cannot be loaded, the extension comes from an
    import of the package.
    """
    package = f"scipy.{subpackage}"
    qualname = f"{package}.{name}"
    if qualname in sys.modules:
        return sys.modules[qualname]
    from importlib import import_module, machinery, util
    if package in sys.modules:
        return import_module(qualname)
    try:
        scipy = util.find_spec("scipy")
        if scipy is None or not scipy.submodule_search_locations:
            raise ImportError("scipy is not installed")
        path = os.path.join(scipy.submodule_search_locations[0], subpackage)
        spec = machinery.FileFinder(
            path, (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES)
        ).find_spec(qualname)
        if spec is None:
            raise ImportError(f"no {qualname} extension in scipy")
        stand_in = util.module_from_spec(
            machinery.ModuleSpec(package, None, is_package=True)
        )
        stand_in.__path__.append(path)
        sys.modules[package] = stand_in
        module = None
        try:
            module = util.module_from_spec(spec)
            sys.modules[qualname] = module
            spec.loader.exec_module(module)
        finally:
            if sys.modules.get(package) is stand_in:
                del sys.modules[package]
            if module is not None and sys.modules.get(qualname) is module:
                del sys.modules[qualname]
    except (ImportError, OSError):
        return import_module(qualname)
    return module


def _not_a_knot(x: np.ndarray, y: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Values at q of the not-a-knot cubic spline through (x, y[:, k]).

    The arithmetic is that of scipy's CubicSpline, term for term: the
    banded system for the knot slopes with its not-a-knot end rows, the
    gtsv solve that solve_banded makes, the Hermite coefficients, and
    PPoly's evaluation in powers of the offset from the interval's left
    knot (the leading 0.0 + turns a -0.0 into +0.0, as PPoly does).
    x is strictly increasing with at least 4 knots.
    """
    dx = np.diff(x)
    dxr = dx[:, None]
    slope = np.diff(y, axis=0) / dxr
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    # The three diagonals and the right-hand side of the slope system.
    du = np.concatenate(([d0], dx[:-1]))
    d = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]))
    dl = np.concatenate((dx[1:], [d1]))
    b = np.empty_like(y)
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    b[0] = ((dxr[0] + 2 * d0) * dxr[1] * slope[0]
            + dxr[0]**2 * slope[1]) / d0
    b[-1] = (dxr[-1]**2 * slope[-2]
             + (2 * d1 + dxr[-1]) * dxr[-2] * slope[-1]) / d1
    *_, s, info = scipy_extension("linalg", "_flapack").dgtsv(
        dl, d, du, b
    )
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    c3, c2, c1, c0 = t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]

    i = np.clip(np.searchsorted(x, q, "right") - 1, 0, x.size - 2)
    h = (q - x[i])[:, None]
    return 0.0 + c0[i] + c1[i] * h + c2[i] * (h * h) + c3[i] * (h * h * h)


# Autocorrelation of the third-difference stencil [-1, 3, -3, 1]: the
# diagonals of D3 D3^T, which is exactly Toeplitz (rows of D3 never clip).
_D3_STENCIL = np.array([-1.0, 3.0, -3.0, 1.0])
_D3_AUTOCORR = np.convolve(_D3_STENCIL, _D3_STENCIL[::-1])


def smooth_with_lambda(
    samples: np.ndarray, rate: float, lam: float
) -> np.ndarray:
    """Solve the penalized least-squares system for a fixed lambda.

    Uses the dual (Reinsch) form: with z solving
    (I + c D3 D3^T) z = D3 y, the minimizer is f = y - c D3^T z. Unlike the
    primal system I + c D3^T D3, the dual matrix stays well conditioned as
    c grows (D3 D3^T has no null space), so very stiff settings converge to
    the least-squares quadratic instead of losing the identity term to
    roundoff. The banded matrix is factored once (LAPACK pbtrf) and
    solved twice (pbtrs): the solve and one iterative-refinement pass.
    Non-finite input or lambda raises ValueError; a matrix that is not
    positive definite falls back to the least-squares quadratic.
    """
    y = np.asarray(samples, dtype=float)
    n = y.size
    h = 1.0 / rate
    c = lam * h**-5
    if n < 4 or c == 0.0:
        return y.copy()
    d3y = np.diff(y, n=3)
    m = n - 3
    ab = np.zeros((4, m))
    ab[3] = 1.0 + c * 20.0
    ab[2, 1:] = c * -15.0
    ab[1, 2:] = c * 6.0
    ab[0, 3:] = c * -1.0
    # Non-finite values raise check_finite's ValueError before anything
    # is factored, as scipy's banded solvers do.
    np.asarray_chkfinite(ab)
    np.asarray_chkfinite(d3y)
    flapack = scipy_extension("linalg", "_flapack")
    chol, info = flapack.dpbtrf(ab)
    if info > 0:
        return _quadratic_limit(y)
    z = flapack.dpbtrs(chol, d3y)[0]
    # (D3 D3^T) z as the middle m entries of the full product; mode="same"
    # would return 7 entries when m < 7.
    residual = d3y - (z + c * np.convolve(z, _D3_AUTOCORR)[3:3 + m])
    z = z + flapack.dpbtrs(chol, np.asarray_chkfinite(residual))[0]
    return y - c * np.convolve(z, _D3_STENCIL, mode="full")


def _quadratic_limit(y: np.ndarray) -> np.ndarray:
    """Least-squares quadratic through the series (penalty null space)."""
    n = y.size
    t = np.arange(n, dtype=float)
    t = (t - t.mean()) / max(t.max() - t.mean(), 1.0)
    v = np.column_stack([np.ones(n), t, t * t])
    coef, *_ = np.linalg.lstsq(v, y, rcond=None)
    return v @ coef


def _check_series(samples, rate) -> np.ndarray:
    y = np.asarray(samples, dtype=float)
    if y.ndim != 1:
        raise ValueError("samples must be 1-D")
    if y.size < 7:
        raise SeriesTooShort(f"{y.size} samples; smoothing needs >= 7")
    if not np.all(np.isfinite(y)):
        raise ValueError("series contains non-finite values; fill gaps first")
    if not rate > 0:
        raise ValueError(f"rate must be positive, got {rate}")
    return y


def smooth_to_mse(
    samples: np.ndarray, rate: float, target_mse: float
) -> tuple[np.ndarray, float, bool]:
    """Smooth a series so its residual MSE hits target_mse.

    target_mse is in squared data units (mm^2 for marker coordinates) and
    must be > 0; an achieved MSE within target_mse * (1 +/- _MSE_TOLERANCE)
    counts as met. Returns (smoothed, achieved_mse, met_target). Residual
    MSE grows monotonically with lambda, so a bisection on log lambda over
    [1e-12, 1e12] brackets the target whenever it is reachable. When even
    the lambda -> infinity limit (the least-squares quadratic) leaves the
    residual below target, that limit is returned with met_target False.
    """
    if not target_mse > 0:
        raise ValueError(f"target_mse must be > 0, got {target_mse}")
    y = _check_series(samples, rate)
    tol = _MSE_TOLERANCE * target_mse

    def mse_of(f: np.ndarray) -> float:
        r = y - f
        return float(np.mean(r * r))

    f_quad = _quadratic_limit(y)
    mse_quad = mse_of(f_quad)
    if mse_quad <= target_mse + tol:
        # Even infinite stiffness cannot push the residual above the target;
        # report the limit itself.
        return f_quad, mse_quad, abs(mse_quad - target_mse) <= tol

    lo, hi = LAMBDA_LO, LAMBDA_HI
    f_lo = smooth_with_lambda(y, rate, lo)
    mse_lo = mse_of(f_lo)
    if mse_lo >= target_mse:
        return f_lo, mse_lo, abs(mse_lo - target_mse) <= tol
    f_hi = smooth_with_lambda(y, rate, hi)
    mse_hi = mse_of(f_hi)
    if mse_hi <= target_mse:
        return f_hi, mse_hi, abs(mse_hi - target_mse) <= tol

    f_mid, mse_mid = f_lo, mse_lo
    for _ in range(_MAX_ITERATIONS):
        mid = np.sqrt(lo * hi)
        f_mid = smooth_with_lambda(y, rate, mid)
        mse_mid = mse_of(f_mid)
        if abs(mse_mid - target_mse) <= tol:
            return f_mid, mse_mid, True
        if mse_mid < target_mse:
            lo = mid
        else:
            hi = mid
    return f_mid, mse_mid, False
