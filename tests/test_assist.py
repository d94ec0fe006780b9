"""Tests for the assistance torque profile and tension conversion.

Covers the shipped default profile (onset 23.2, peak 50.4, end 62.7 GC%,
10 Nm), the 17 kgf <-> 10 Nm moment-arm identity, smoothstep midpoints,
C1 continuity, segment monotonicity, and the error paths. The scalar
profile in sim_oracle is the independent reference that reference_tensions
is held to.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exogait.assist import (
    DEFAULT_MOMENT_ARM,
    DEFAULT_PROFILE,
    G_STANDARD,
    TensionConversion,
    TorqueProfile,
    reference_tensions,
)
from exogait.errors import InvalidProfile
from sim_oracle import reference_tension, torque_to_tension

# A 1 m moment arm turns the tension into the torque: it divides by 1.0.
_UNIT_ARM = TensionConversion(moment_arm=1.0)


def torque_at(profile, gc):
    """Assistance torque (Nm) at one GC%, as reference_tensions gives it."""
    return float(reference_tensions(profile, _UNIT_ARM, np.array([gc]))[0])


def tension_at_peak(torque, conv):
    """Cable tension (N) for an ankle torque (Nm): the tension at the peak
    of the default timings with that peak torque."""
    profile = TorqueProfile(23.2, 50.4, 62.7, torque)
    return float(reference_tensions(profile, conv, np.array([50.4]))[0])


def tension_to_torque(tension, conv):
    """Cable tension (N) to ankle torque (Nm), the inverse that the
    conversion is checked against."""
    return tension * conv.moment_arm


def test_peak_value_exact():
    assert torque_at(DEFAULT_PROFILE, 50.4) == 10.0


def test_zero_outside_support():
    assert torque_at(DEFAULT_PROFILE, 0.0) == 0.0
    assert torque_at(DEFAULT_PROFILE, 23.2) == 0.0
    assert torque_at(DEFAULT_PROFILE, 62.7) == 0.0
    assert torque_at(DEFAULT_PROFILE, 70.0) == 0.0
    assert torque_at(DEFAULT_PROFILE, 100.0) == 0.0


def test_rise_midpoint_is_half_peak():
    # Smoothstep at u = 0.5 is exactly 0.5; (23.2 + 50.4)/2 = 36.8.
    assert torque_at(DEFAULT_PROFILE, 36.8) == pytest.approx(5.0, abs=1e-9)


def test_fall_midpoint_is_half_peak():
    mid = (50.4 + 62.7) / 2.0
    assert torque_at(DEFAULT_PROFILE, mid) == pytest.approx(5.0, abs=1e-9)


def test_peak_tension_matches_17_kgf():
    conv = TensionConversion()
    tension = tension_at_peak(10.0, conv)
    assert tension == pytest.approx(166.71, abs=0.05)
    assert tension == pytest.approx(17.0 * G_STANDARD, abs=1e-9)


def test_default_moment_arm_value():
    assert DEFAULT_MOMENT_ARM == pytest.approx(10.0 / (17.0 * 9.80665))


def test_tension_round_trip():
    conv = TensionConversion()
    for torque in [0.0, 0.5, 3.3, 10.0, 25.0]:
        back = tension_to_torque(tension_at_peak(torque, conv), conv)
        assert back == pytest.approx(torque, abs=1e-12)


def test_tension_to_torque_fixture():
    conv = TensionConversion()
    assert tension_to_torque(166.71, conv) == pytest.approx(10.0, abs=1e-3)


def test_conversion_is_linear():
    conv = TensionConversion()
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = float(rng.uniform(0.0, 20.0))
        b = float(rng.uniform(0.0, 20.0))
        lhs = tension_at_peak(a + b, conv)
        rhs = tension_at_peak(a, conv) + tension_at_peak(b, conv)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_reference_tension_composes():
    conv = TensionConversion()
    for gc in [0.0, 30.0, 50.4, 55.0, 90.0]:
        expected = torque_at(DEFAULT_PROFILE, gc) / conv.moment_arm
        got = reference_tensions(DEFAULT_PROFILE, conv, np.array([gc]))
        assert got[0] == expected


def test_profile_is_c1():
    # Central differences across the onset, peak, and end joints: the slope
    # must be continuous (smoothstep has zero slope at both segment ends).
    h = 1e-5
    for joint in [23.2, 50.4, 62.7]:
        left = (
            torque_at(DEFAULT_PROFILE, joint) - torque_at(DEFAULT_PROFILE, joint - h)
        ) / h
        right = (
            torque_at(DEFAULT_PROFILE, joint + h) - torque_at(DEFAULT_PROFILE, joint)
        ) / h
        assert abs(left - right) < 1e-3
        assert abs(left) < 1e-3
        assert abs(right) < 1e-3


def test_monotone_on_each_segment():
    rise = np.linspace(23.2, 50.4, 200)
    vals = [torque_at(DEFAULT_PROFILE, float(g)) for g in rise]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    fall = np.linspace(50.4, 62.7, 200)
    vals = [torque_at(DEFAULT_PROFILE, float(g)) for g in fall]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_grid_max_is_at_peak():
    grid = np.arange(0.0, 100.0 + 1e-12, 0.01)
    vals = reference_tensions(DEFAULT_PROFILE, _UNIT_ARM, grid)
    i = int(np.argmax(vals))
    assert abs(grid[i] - 50.4) < 0.01 + 1e-9
    assert vals[i] == pytest.approx(10.0, abs=1e-9)
    assert np.all(vals <= 10.0 + 1e-12)
    assert np.all(vals >= 0.0)


def test_torque_scales_with_peak():
    rng = np.random.default_rng(11)
    for _ in range(20):
        scale = float(rng.uniform(0.1, 4.0))
        scaled = TorqueProfile(23.2, 50.4, 62.7, 10.0 * scale)
        gc = float(rng.uniform(0.0, 100.0))
        assert torque_at(scaled, gc) == pytest.approx(
            scale * torque_at(DEFAULT_PROFILE, gc), rel=1e-12, abs=1e-15
        )


def test_invalid_profile_orderings():
    with pytest.raises(InvalidProfile):
        TorqueProfile(50.0, 50.0, 60.0, 10.0)
    with pytest.raises(InvalidProfile):
        TorqueProfile(30.0, 20.0, 60.0, 10.0)
    with pytest.raises(InvalidProfile):
        TorqueProfile(30.0, 60.0, 55.0, 10.0)
    with pytest.raises(InvalidProfile):
        TorqueProfile(-1.0, 50.0, 60.0, 10.0)
    with pytest.raises(InvalidProfile):
        TorqueProfile(30.0, 50.0, 101.0, 10.0)
    with pytest.raises(InvalidProfile):
        TorqueProfile(30.0, 50.0, 60.0, -2.0)


def test_gc_out_of_range_rejected():
    with pytest.raises(ValueError):
        torque_at(DEFAULT_PROFILE, -0.1)
    with pytest.raises(ValueError):
        torque_at(DEFAULT_PROFILE, 100.1)
    with pytest.raises(ValueError):
        torque_at(DEFAULT_PROFILE, math.nan)


# The scalar reference's own check: it refuses a negative torque, which no
# profile can produce.


def test_negative_conversions_rejected():
    conv = TensionConversion()
    with pytest.raises(ValueError):
        torque_to_tension(-1.0, conv)


def test_bad_moment_arm_rejected():
    with pytest.raises(InvalidProfile):
        TensionConversion(moment_arm=0.0)
    with pytest.raises(InvalidProfile):
        TensionConversion(moment_arm=-0.05)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_torque_and_arm_rejected(value):
    with pytest.raises(InvalidProfile):
        TorqueProfile(30.0, 50.0, 60.0, value)
    with pytest.raises(InvalidProfile):
        TensionConversion(moment_arm=value)


@settings(max_examples=200, deadline=None)
@given(
    knots=st.lists(st.floats(0.0, 100.0), min_size=3, max_size=3, unique=True),
    peak_torque=st.floats(0.0, 1e308),
    moment_arm=st.floats(0.01, 0.2),
    gc=st.lists(st.floats(0.0, 100.0), max_size=60),
)
def test_reference_tensions_match_scalar_chain(knots, peak_torque, moment_arm,
                                               gc):
    # Knots included, so every segment boundary is hit; a peak near 1e308
    # overflows the tension to inf in both, and no warning may escape.
    profile = TorqueProfile(*sorted(knots), peak_torque)
    conv = TensionConversion(moment_arm)
    grid = gc + sorted(knots)
    want = np.array([reference_tension(profile, conv, g) for g in grid])
    assert reference_tensions(profile, conv, np.array(grid)).tobytes() \
        == want.tobytes()


def test_reference_tensions_reject_out_of_range_gc():
    for gc in (-0.1, 100.1, math.nan):
        with pytest.raises(ValueError):
            reference_tensions(DEFAULT_PROFILE, TensionConversion(),
                               np.array([50.0, gc]))
