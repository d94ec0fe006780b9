"""Tests for gap filling and residual-MSE-targeted smoothing."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from exogait import preprocess
from exogait.errors import SeriesTooShort, TooFewValidFrames
from exogait.preprocess import fill_gaps, smooth_to_mse, smooth_with_lambda
from exogait.trial import MarkerTrajectory
from smooth_oracle import oracle_smooth_with_lambda
from spline_oracle import oracle_fill_gaps


def roughness(samples, rate):
    """The smoother's penalty value P(f) = h * sum((d3 f / h^3)^2)."""
    y = np.asarray(samples, dtype=float)
    if y.size < 4:
        return 0.0
    h = 1.0 / rate
    d3 = np.diff(y, n=3)
    return float(h**-5 * np.sum(d3 * d3))


def _traj(coords, valid):
    coords = np.asarray(coords, dtype=float)
    return MarkerTrajectory(label="HEE", coords=coords, valid=np.asarray(valid))


def _noisy_sine(seed=0, rate=100.0, duration=5.0, amplitude=50.0, noise_sd=None):
    # Variance sigma^2 = 10 so the target-10 smoother has headroom.
    if noise_sd is None:
        noise_sd = np.sqrt(10.0)
    rng = np.random.default_rng(seed)
    t = np.arange(int(duration * rate)) / rate
    return amplitude * np.sin(2.0 * np.pi * 1.0 * t) + rng.normal(0.0, noise_sd, t.size)


def test_constant_series_cannot_reach_target():
    y = np.full(100, 3.0)
    smoothed, mse, met = smooth_to_mse(y, 100.0, 10.0)
    np.testing.assert_allclose(smoothed, y, atol=1e-9)
    assert mse == pytest.approx(0.0, abs=1e-18)
    assert not met


def test_quadratic_is_penalty_null_space():
    # A quadratic has zero third difference, so any lambda reproduces it.
    t = np.arange(50, dtype=float)
    y = 0.3 * t * t - 2.0 * t + 7.0
    for lam in [1e-6, 1.0, 1e6]:
        smoothed = smooth_with_lambda(y, 100.0, lam)
        np.testing.assert_allclose(smoothed, y, atol=1e-6)
    assert roughness(y, 100.0) == pytest.approx(0.0, abs=1e-12)


def test_noisy_sine_hits_target():
    y = _noisy_sine(seed=1)
    smoothed, mse, met = smooth_to_mse(y, 100.0, 10.0)
    assert met
    assert 9.5 <= mse <= 10.5
    assert roughness(smoothed, 100.0) < roughness(y, 100.0)


def test_mse_monotone_in_lambda():
    # Slack of 1e-5*(1+MSE) absorbs solver roundoff on the stiff plateau,
    # where adjacent exact values differ by less than the solve error.
    rng = np.random.default_rng(8)
    for _ in range(10):
        y = rng.normal(0.0, 5.0, 200) + np.linspace(0.0, 30.0, 200)
        grid = np.geomspace(1e-9, 1e9, 20)
        mses = []
        for lam in grid:
            f = smooth_with_lambda(y, 100.0, lam)
            mses.append(float(np.mean((y - f) ** 2)))
        assert all(b >= a - 1e-5 * (1.0 + a) for a, b in zip(mses, mses[1:]))


def test_smoothing_reduces_roughness():
    rng = np.random.default_rng(21)
    for _ in range(10):
        y = rng.normal(0.0, 2.0, 150)
        for lam in [1e-4, 1e-1, 1e2]:
            f = smooth_with_lambda(y, 100.0, lam)
            assert roughness(f, 100.0) <= roughness(y, 100.0) + 1e-9


def test_solver_deterministic():
    y = _noisy_sine(seed=3)
    a = smooth_with_lambda(y, 100.0, 0.37)
    b = smooth_with_lambda(y.copy(), 100.0, 0.37)
    assert np.array_equal(a, b)


def test_target_scaling():
    y = _noisy_sine(seed=4, noise_sd=5.0)
    _, mse, met = smooth_to_mse(y, 100.0, 4.0)
    assert met
    assert abs(mse - 4.0) <= 0.2


def test_short_series_rejected():
    with pytest.raises(SeriesTooShort):
        smooth_to_mse(np.zeros(6), 100.0, 10.0)


def test_non_finite_rejected():
    y = np.zeros(20)
    y[3] = np.nan
    with pytest.raises(ValueError):
        smooth_to_mse(y, 100.0, 10.0)


def test_argument_range_checks():
    with pytest.raises(ValueError,
                       match=r"^target_mse must be > 0, got 0\.0$"):
        smooth_to_mse(np.zeros(20), 100.0, 0.0)
    coords = np.zeros((10, 3))
    with pytest.raises(ValueError, match=r"^max_gap must be >= 1, got 0$"):
        fill_gaps(_traj(coords, np.ones(10, dtype=bool)), 0)


def test_fill_linear_ramp_gap_exactly():
    # A straight line is inside the cubic space, so the gap frames are exact.
    n = 20
    coords = np.column_stack([np.arange(n, dtype=float)] * 3)
    valid = np.ones(n, dtype=bool)
    valid[7:10] = False
    broken = coords.copy()
    broken[7:10] = 0.0
    filled = fill_gaps(_traj(broken, valid), 10)
    assert filled.valid.all()
    np.testing.assert_allclose(filled.coords, coords, atol=1e-9)


def test_fill_preserves_valid_frames_bit_identical():
    rng = np.random.default_rng(12)
    coords = rng.normal(0.0, 100.0, (40, 3))
    valid = np.ones(40, dtype=bool)
    valid[15:18] = False
    traj = _traj(coords, valid)
    filled = fill_gaps(traj, 10)
    assert np.array_equal(filled.coords[valid], coords[valid])


def test_fill_skips_long_gap():
    coords = np.column_stack([np.arange(30, dtype=float)] * 3)
    valid = np.ones(30, dtype=bool)
    valid[8:20] = False  # 12-frame gap
    filled = fill_gaps(_traj(coords, valid), 10)
    assert not filled.valid[8:20].any()
    assert filled.valid[:8].all() and filled.valid[20:].all()


def test_fill_leaves_leading_and_trailing_gaps():
    coords = np.zeros((15, 3))
    valid = np.ones(15, dtype=bool)
    valid[:3] = False
    valid[-2:] = False
    filled = fill_gaps(_traj(coords, valid), 10)
    assert not filled.valid[:3].any()
    assert not filled.valid[-2:].any()


def test_fill_needs_four_valid_frames():
    coords = np.zeros((10, 3))
    valid = np.zeros(10, dtype=bool)
    valid[[0, 4, 9]] = True
    with pytest.raises(TooFewValidFrames):
        fill_gaps(_traj(coords, valid), 10)


def test_fill_fits_no_spline_without_an_admissible_gap():
    # A non-finite valid frame cannot anchor a spline; that matters only
    # when some gap is to be filled.
    coords = np.arange(30.0).reshape(10, 3)
    coords[2, 1] = np.inf
    valid = np.ones(10, dtype=bool)
    valid[4:8] = False
    series = _traj(coords, valid)
    with mock.patch.object(preprocess, "_not_a_knot") as spline:
        filled = fill_gaps(series, 3)
    spline.assert_not_called()
    assert filled.coords.tobytes() == coords.tobytes()
    assert filled.coords is not series.coords
    assert np.array_equal(filled.valid, valid)
    assert filled.valid is not series.valid
    with pytest.raises(ValueError, match="non-finite coordinates"):
        fill_gaps(series, 4)


# --- gap filler against the CubicSpline oracle ----------------------------------


def _fill_outcome(fill, series, max_gap):
    """The filled bytes, or the type and message of what was raised."""
    try:
        out = fill(series, max_gap)
    except (TooFewValidFrames, ValueError) as exc:
        return type(exc), str(exc)
    return out.label, out.coords.tobytes(), out.valid.tobytes()


@st.composite
def _gappy_trajectories(draw):
    """(trajectory, max_gap): valid runs and gaps of 1 to max_gap + 2
    frames (exactly max_gap often), with or without a leading and a
    trailing gap, over coordinates that include +-0.0 and are scaled by
    1e300 or 1e-300 or offset by them."""
    max_gap = draw(st.integers(1, 12))
    gap = st.just(max_gap) | st.integers(1, max_gap + 2)
    valid = [False] * draw(st.sampled_from([0, 0, 1, 2, max_gap]))
    for _ in range(draw(st.integers(0, 6))):
        valid += [True] * draw(st.integers(1, 6))
        valid += [False] * draw(gap)
    valid += [True] * draw(st.integers(1, 6))
    valid += [False] * draw(st.sampled_from([0, 0, 1, 3, max_gap]))
    n = len(valid)
    element = (st.floats(-1e3, 1e3)
               | st.sampled_from([0.0, -0.0, 1.0, -1.0]))
    coords = draw(arrays(np.float64, (n, 3), elements=element))
    coords *= draw(st.sampled_from([1.0, 1e300, 1e-300]))
    coords += np.array(draw(st.lists(
        st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300]),
        min_size=3, max_size=3)))
    # Invalid frames hold whatever the source put there.
    coords[~np.array(valid)] = draw(st.sampled_from([0.0, np.nan, 7.0]))
    return _traj(coords, valid), max_gap


def _four_valid_frames(n):
    """Exactly four valid frames, the fewest a not-a-knot cubic takes,
    around gaps of n - 2 and 1 frames, with max_gap n - 2."""
    valid = np.zeros(n + 3, dtype=bool)
    valid[[0, 1, n, n + 2]] = True
    coords = np.arange(3 * valid.size, dtype=float).reshape(-1, 3) ** 1.5
    return _traj(coords, valid), n - 2


@settings(max_examples=500, deadline=None)
@given(drawn=_gappy_trajectories())
@example(drawn=_four_valid_frames(4))
@example(drawn=_four_valid_frames(5))
def test_fill_gaps_matches_cubic_spline_oracle(drawn):
    series, max_gap = drawn
    got = _fill_outcome(fill_gaps, series, max_gap)
    want = _fill_outcome(oracle_fill_gaps, series, max_gap)
    assert got == want


# --- smoother against the two-solve oracle ---------------------------------------


def _smooth_outcome(smooth, y, rate, lam):
    """The smoothed bytes, or the type and message of what was raised."""
    try:
        return smooth(y, rate, lam).tobytes()
    except (ValueError, RuntimeWarning) as exc:
        return type(exc), str(exc)


_samples = st.lists(
    st.floats(-1e3, 1e3) | st.sampled_from([np.nan, np.inf, -np.inf]),
    min_size=1, max_size=120,
)
_lambdas = (
    st.floats(-1e3, 1e3)
    | st.floats(1e-12, 1e12)
    | st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1e300])
)


@settings(max_examples=300, deadline=None)
@given(samples=_samples, rate=st.sampled_from([50.0, 100.0, 250.0]),
       lam=_lambdas)
def test_smooth_with_lambda_matches_two_solve_oracle(samples, rate, lam):
    # Covers the identity cases (n < 4, lambda 0), the non-finite
    # ValueError, the quadratic fallback when a negative lambda makes the
    # matrix indefinite, and series of 4 to 9 samples, whose dual system
    # is shorter than the 7-tap D3 D3^T stencil.
    y = np.asarray(samples)
    got = _smooth_outcome(smooth_with_lambda, y, rate, lam)
    want = _smooth_outcome(oracle_smooth_with_lambda, y, rate, lam)
    assert got == want


@pytest.mark.parametrize("n", [7, 8, 9])
def test_smooth_to_mse_on_the_shortest_series(n):
    # smooth_to_mse takes 7 samples or more; on these few the quadratic
    # limit misses the target, so the search runs nonzero lambdas.
    y = np.random.default_rng(0).normal(0.0, 100.0, n)
    smoothed, achieved, met = smooth_to_mse(y, 100.0, 10.0)
    assert smoothed.shape == (n,)
    assert np.isfinite(smoothed).all()
    assert achieved == pytest.approx(np.mean((y - smoothed) ** 2))


@pytest.mark.parametrize("seed", range(6))
def test_smooth_to_mse_matches_two_solve_oracle(seed):
    y = _noisy_sine(seed=seed, duration=2.0, noise_sd=1.0 + seed)
    target = float(1 + seed)
    got = smooth_to_mse(y, 100.0, target)
    with mock.patch.object(preprocess, "smooth_with_lambda",
                           oracle_smooth_with_lambda):
        want = smooth_to_mse(y, 100.0, target)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1:] == want[1:]
