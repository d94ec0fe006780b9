"""Tests for the PID controller, cable plant, and closed-loop simulation.

The controller and plant checks step the one-step functions of
sim_oracle, which run_simulation must match bit for bit (the properties at
the end), so they hold for the kernel too. They pin the unilateral-cable
rule, the static torque balance (6.6684 Nm over a 0.04 m pulley holds
166.71 N), measurement clamping, and the energy inequality: the anchor can
never receive more work than the motor puts in, friction and damping only
ever drain the difference.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exogait import assist, phase
from exogait.assist import (
    DEFAULT_PROFILE,
    TensionConversion,
    TorqueProfile,
    reference_tensions,
)
from exogait.errors import EmptyResult, NonFiniteState
from exogait.phase import phase_series, strike_ticks
from exogait.simulate import (
    DEFAULT_GAINS,
    CycleSummary,
    PidGains,
    PlantParams,
    SimResult,
    _metrics_from_arrays,
    run_simulation,
)
from sim_oracle import (
    PhaseState,
    PidState,
    PlantState,
    StrikeDetector,
    masked_metrics,
    oracle_simulation,
    pid_step,
    plant_step,
    reached,
    reference_tension,
    tracking_metrics,
    update_phase,
)

_QUIET = replace(PlantParams(), loadcell_noise_sd=0.0)
_CONV = TensionConversion()


# --- controller ---------------------------------------------------------------


def test_pid_all_gains_zero():
    gains = PidGains(kp=0.0, ki=0.0, kd=0.0, ff_gain=0.0)
    state = PidState()
    for ref, meas in [(0.0, 0.0), (50.0, 3.0), (-10.0, 400.0)]:
        state, command = pid_step(gains, state, ref, meas, 0.002)
        assert command == 0.0


def test_pid_proportional_only():
    gains = PidGains(kp=1.0, ki=0.0, kd=0.0, ff_gain=0.0)
    _, command = pid_step(gains, PidState(), 5.0, 3.0, 0.002)
    assert command == 2.0


def test_pid_integral_rectangle_rule():
    gains = PidGains(kp=0.0, ki=1.0, kd=0.0, ff_gain=0.0)
    state = PidState()
    command = 0.0
    for _ in range(100):
        state, command = pid_step(gains, state, 1.0, 0.0, 0.01)
    assert state.integral == pytest.approx(1.0, abs=1e-12)
    assert command == pytest.approx(1.0, abs=1e-12)


def test_pid_integrator_clamp():
    # The integral stops at 4 Nm, inside the 8 Nm output limit.
    gains = PidGains(kp=0.0, ki=1.0, kd=0.0, ff_gain=0.0)
    state = PidState()
    for _ in range(10):
        state, _ = pid_step(gains, state, 1.0, 0.0, 1.0)
    assert state.integral == 4.0


def test_pid_anti_windup_freezes_integral():
    gains = PidGains(kp=1.0, ki=1.0, kd=0.0, ff_gain=0.0)
    state = PidState()
    for _ in range(50):
        state, command = pid_step(gains, state, 50.0, 0.0, 0.01)
        assert command == 8.0
    # Saturated in the error's direction the whole time: no accumulation.
    assert state.integral == 0.0


def test_pid_anti_windup_keys_on_output_limit():
    # A 4 Nm actuator: the command stops at 4 Nm, and the integral does
    # not grow while it is held there.
    gains = PidGains(kp=1.0, ki=1.0, kd=0.0, ff_gain=0.0)
    state = PidState()
    for _ in range(50):
        state, command = pid_step(gains, state, 50.0, 0.0, 0.01, 4.0)
        assert command == 4.0
    assert state.integral == 0.0


def test_pid_derivative_filtered():
    gains = PidGains(kp=0.0, ki=0.0, kd=0.5, ff_gain=0.0)
    state, command = pid_step(gains, PidState(), 1.0, 0.0, 0.01)
    assert command == 0.0  # no previous error, derivative suppressed
    state, command = pid_step(gains, state, 2.0, 0.0, 0.01)
    # raw slope 100 N/s through the 1/11 low-pass, inside the 8 Nm limit
    assert command == pytest.approx(0.5 * 100.0 / 11.0)


def test_pid_feedforward_term():
    gains = PidGains(kp=0.0, ki=0.0, kd=0.0, ff_gain=0.04)
    _, command = pid_step(gains, PidState(), 50.0, 50.0, 0.002)
    assert command == pytest.approx(2.0)


def test_pid_output_clamped():
    gains = PidGains(kp=1.0, ki=0.0, kd=0.0, ff_gain=0.0)
    _, command = pid_step(gains, PidState(), 1000.0, 0.0, 0.002)
    assert command == 8.0
    _, command = pid_step(gains, PidState(), -1000.0, 0.0, 0.002)
    assert command == -8.0


def test_pid_rejects_bad_dt():
    with pytest.raises(ValueError):
        pid_step(DEFAULT_GAINS, PidState(), 1.0, 0.0, 0.0)


def test_gain_validation():
    with pytest.raises(ValueError):
        PidGains(kp=-0.1, ki=0.0, kd=0.0, ff_gain=0.0)
    for value in (math.nan, math.inf):
        for name in ("kp", "ki", "kd", "ff_gain"):
            with pytest.raises(ValueError):
                replace(DEFAULT_GAINS, **{name: value})


# --- plant --------------------------------------------------------------------


def test_slack_cable_carries_nothing():
    # Anchor pulled far enough out that the stretch is negative.
    state = PlantState(anchor_pos=0.01)
    for _ in range(20):
        state = plant_step(_QUIET, state, 0.0, 0.01, 0.0002)
    assert state.tension_true == 0.0
    assert state.tension_measured == 0.0


def test_static_torque_balance():
    # Friction off: tau = r_p * T is an equilibrium, T = 6.6684/0.04 = 166.71.
    params = replace(_QUIET, sheath_mu=0.0)
    target = 166.71
    s0 = params.pretension / params.cable_stiffness
    theta = (target / params.cable_stiffness - s0) / params.pulley_radius
    state = PlantState(theta=theta, tension_true=target, tension_measured=target)
    for _ in range(1000):
        state = plant_step(params, state, 6.6684, 0.0, 0.0002)
    assert state.tension_true == pytest.approx(166.71, abs=1e-9)
    assert state.omega == pytest.approx(0.0, abs=1e-9)


def test_equilibrium_reached_from_rest():
    # Same balance approached dynamically instead of starting on it.
    params = replace(_QUIET, sheath_mu=0.0)
    state = PlantState(tension_true=params.pretension,
                       tension_measured=params.pretension)
    for _ in range(75000):
        state = plant_step(params, state, 6.6684, 0.0, 0.0002)
    assert state.tension_true == pytest.approx(166.71, abs=1e-4)


def test_measured_equals_true_without_noise():
    state = PlantState(tension_true=5.0, tension_measured=5.0)
    rng = np.random.default_rng(0)
    zero_sd = replace(PlantParams(), loadcell_noise_sd=0.0)
    for _ in range(50):
        state = plant_step(zero_sd, state, 1.0, 0.0, 0.0002, rng=rng)
        assert state.tension_measured == state.tension_true
    state2 = PlantState(tension_true=5.0, tension_measured=5.0)
    state2 = plant_step(_QUIET, state2, 1.0, 0.0, 0.0002, rng=None)
    assert state2.tension_measured == state2.tension_true


def test_tension_nonnegative_and_measurement_clamped():
    params = PlantParams()  # noise on
    rng = np.random.default_rng(99)
    state = PlantState(tension_true=params.pretension,
                       tension_measured=params.pretension)
    anchor = 0.0
    for _ in range(3000):
        command = float(rng.uniform(-8.0, 8.0))
        anchor = float(np.clip(anchor + rng.normal(0.0, 0.0004), -0.01, 0.01))
        state = plant_step(params, state, command, anchor, 0.0002, rng=rng)
        assert state.tension_true >= 0.0
        assert 0.0 <= state.tension_measured <= 500.0


def test_command_clamped_to_torque_max():
    # A huge command behaves exactly like the +-8 Nm limit.
    state_a = PlantState()
    state_b = PlantState()
    for _ in range(200):
        state_a = plant_step(_QUIET, state_a, 1e6, 0.0, 0.0002)
        state_b = plant_step(_QUIET, state_b, 8.0, 0.0, 0.0002)
    assert state_a.theta == state_b.theta
    assert state_a.tension_true == state_b.tension_true


def test_sheath_factor_bounded_by_branches():
    params = PlantParams(loadcell_noise_sd=0.0)
    bound = params.sheath_mu * params.wrap_angle
    rng = np.random.default_rng(3)
    state = PlantState(tension_true=params.pretension,
                       tension_measured=params.pretension)
    anchor = 0.0
    for _ in range(3000):
        anchor = float(np.clip(anchor + rng.normal(0.0, 0.0003), -0.008, 0.008))
        state = plant_step(params, state, float(rng.uniform(-4, 8)), anchor, 0.0002)
        assert -bound - 1e-12 <= state.sheath_exponent <= bound + 1e-12


def test_diverged_state_raises():
    state = PlantState()
    with pytest.raises(NonFiniteState):
        plant_step(_QUIET, state, math.nan, 0.0, 0.0002)


def test_plant_dt_validation():
    state = PlantState()
    with pytest.raises(ValueError):
        plant_step(_QUIET, state, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        # above the 2 ms control period
        plant_step(_QUIET, state, 0.0, 0.0, 0.01)


def test_plant_params_validation():
    with pytest.raises(ValueError):
        PlantParams(inertia=0.0)
    with pytest.raises(ValueError):
        PlantParams(sheath_mu=-0.1)
    for name in ("control_rate", "inertia", "sheath_mu", "loadcell_noise_sd"):
        with pytest.raises(ValueError):
            PlantParams(**{name: math.inf})
        with pytest.raises(ValueError):
            PlantParams(**{name: math.nan})
    with pytest.raises(ValueError):
        PlantState(tension_true=-1.0)


def _drive_energy(tau_cmd: float) -> tuple[float, float]:
    """(motor work in, anchor work out) over ten closed 3 mm anchor cycles."""
    params = _QUIET
    dt = 1.0 / (params.control_rate * 10.0)
    state = PlantState(tension_true=params.pretension,
                       tension_measured=params.pretension)
    w_motor = 0.0
    w_anchor = 0.0
    prev_anchor = 0.0
    n = int(round(10.0 / dt))
    for i in range(n):
        t = (i + 1) * dt
        anchor = 0.003 * math.sin(math.pi * (t % 1.0)) ** 2
        state = plant_step(params, state, tau_cmd, anchor, dt)
        w_motor += tau_cmd * state.omega * dt
        w_anchor += state.tension_true * (prev_anchor - anchor)
        prev_anchor = anchor
    return w_motor, w_anchor


def test_energy_friction_only_dissipates():
    # Over closed anchor cycles the anchor-side work never exceeds the
    # motor-side work; with zero motor torque the anchor must net lose.
    for tau in (0.0, 2.0):
        w_motor, w_anchor = _drive_energy(tau)
        assert w_anchor <= w_motor + 1e-6 * max(w_motor, 1.0)
    w_motor, w_anchor = _drive_energy(0.0)
    assert w_anchor <= 0.0


# --- closed loop ----------------------------------------------------------------


def _run(n_cycles=5, seed=0, **kwargs):
    params = kwargs.pop("params", _QUIET)
    gains = kwargs.pop("gains", DEFAULT_GAINS)
    profile = kwargs.pop("profile", DEFAULT_PROFILE)
    return run_simulation(
        profile, _CONV, gains, params, n_cycles, seed, **kwargs
    )


def test_result_shapes_and_ranges():
    res = _run(n_cycles=3)
    n = len(res.time)
    assert n == int(round(3 * 0.980 * 500))
    for series in (res.reference, res.measured, res.tension_true, res.fsr,
                   res.gc, res.cycle_index):
        assert len(series) == n
    assert np.all((res.gc >= 0.0) & (res.gc <= 100.0))
    assert set(np.unique(res.cycle_index)) == {0, 1, 2}
    assert np.all(np.isin(res.fsr, (0.0, 1.0)))
    assert np.all(res.reference >= _QUIET.pretension)
    assert len(res.cycles) == 3


def test_zero_torque_mode_keeps_pretension():
    profile = TorqueProfile(onset_gc=23.2, peak_gc=50.4, end_gc=62.7,
                            peak_torque=0.0)
    res = _run(profile=profile, params=PlantParams())  # noise on
    mean_true = float(np.mean(res.tension_true))
    assert 0.0 <= mean_true <= PlantParams().pretension + 1.0


def test_constant_reference_settles():
    res = _run(constant_reference=50.0)
    err = np.abs(res.measured - res.reference)
    assert err[res.time >= 2.0].max() < 0.5


def test_error_decays_across_windows():
    res = _run(constant_reference=50.0)
    err = np.abs(res.measured - res.reference)
    windows = []
    for a in range(4):
        m = (res.time >= a) & (res.time < a + 1.0)
        windows.append(float(np.sqrt(np.mean(err[m] ** 2))))
    tol = 0.5
    for prev, cur in zip(windows, windows[1:]):
        if prev < tol:
            break
        assert cur < prev
    assert windows[-1] < tol


def test_deterministic_per_seed():
    a = _run(params=PlantParams(), n_cycles=3, seed=42, stride_jitter=0.05)
    b = _run(params=PlantParams(), n_cycles=3, seed=42, stride_jitter=0.05)
    assert np.array_equal(a.measured, b.measured)
    assert np.array_equal(a.tension_true, b.tension_true)
    assert np.array_equal(a.reference, b.reference)
    assert np.array_equal(a.gc, b.gc)
    assert a.rms_error == b.rms_error
    c = _run(params=PlantParams(), n_cycles=3, seed=43, stride_jitter=0.05)
    assert not np.array_equal(a.measured, c.measured)


def test_tracking_rms_within_budget():
    res = _run(params=PlantParams(), n_cycles=10, seed=7)
    rms, peak, cycles = tracking_metrics(res)
    assert rms == res.rms_error
    assert rms < 0.05 * 166.71
    assert len(cycles) == 10


def test_controller_saturates_with_a_weak_motor():
    # Below 8 Nm the controller clamps at torque_max: the plant's own clamp
    # is never reached, and the integral stays far from its 4 Nm clamp.
    params = replace(PlantParams(), torque_max=4.0)
    reached.clear()
    oracle_simulation(DEFAULT_PROFILE, _CONV, DEFAULT_GAINS, params, 3, 0)
    assert {"output_clamp_high", "anti_windup_high"} <= set(reached)
    assert not {"torque_clamp_high", "torque_clamp_low",
                "integral_clamp_high", "integral_clamp_low"} & set(reached)


def test_run_validation():
    with pytest.raises(ValueError):
        _run(n_cycles=0)
    with pytest.raises(ValueError):
        _run(stride_jitter=1.5)
    with pytest.raises(ValueError, match="control ticks"):
        _run(n_cycles=1, params=replace(_QUIET, control_rate=0.5))
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="constant_reference"):
            _run(n_cycles=1, constant_reference=value)


# --- metrics -------------------------------------------------------------------


def _result(reference, measured, cycle_index):
    n = len(reference)
    zeros = np.zeros(n)
    reference = np.asarray(reference, float)
    measured = np.asarray(measured, float)
    err = np.abs(measured - reference)
    steady = np.asarray(cycle_index) >= 1
    if not steady.any():
        steady = np.ones(n, dtype=bool)
    return SimResult(
        time=np.arange(n) * 0.002,
        reference=reference,
        measured=measured,
        tension_true=measured.copy(),
        fsr=zeros,
        gc=zeros,
        cycle_index=np.asarray(cycle_index),
        rms_error=float(np.sqrt(np.mean(err[steady] ** 2))),
        peak_error=float(err[steady].max()),
    )


def test_metrics_identical_series():
    res = _result(np.full(100, 50.0), np.full(100, 50.0), np.repeat([0, 1], 50))
    rms, peak, cycles = tracking_metrics(res)
    assert rms == 0.0
    assert peak == 0.0
    assert [c.cycle for c in cycles] == [0, 1]


def test_metrics_constant_offset():
    res = _result(np.full(100, 50.0), np.full(100, 51.0), np.repeat([0, 1], 50))
    rms, peak, _ = tracking_metrics(res)
    assert rms == pytest.approx(1.0, abs=1e-12)
    assert peak == pytest.approx(1.0, abs=1e-12)


def test_metrics_alternating_offset():
    measured = 50.0 + np.tile([1.0, -1.0], 50)
    res = _result(np.full(100, 50.0), measured, np.repeat([0, 1], 50))
    rms, peak, _ = tracking_metrics(res)
    assert rms == pytest.approx(1.0, abs=1e-12)
    assert peak == pytest.approx(1.0, abs=1e-12)


def test_metrics_score_steady_cycles_only():
    # Big error in the first cycle must not pollute the steady score.
    reference = np.full(100, 50.0)
    measured = np.concatenate([np.full(50, 0.0), np.full(50, 50.0)])
    res = _result(reference, measured, np.repeat([0, 1], 50))
    rms, peak, cycles = tracking_metrics(res)
    assert rms == 0.0
    assert cycles[0].rms_error == pytest.approx(50.0)


def test_metrics_summed_squares_overflow_to_inf():
    # Each square is finite, but their sum passes the float maximum: the
    # RMS is inf, as the float arithmetic gives it, and numpy stays quiet.
    res = replace(_result(np.zeros(4), np.zeros(4), np.ones(4, int)),
                  measured=np.full(4, 1e154))
    rms, peak, cycles = tracking_metrics(res)
    assert rms == math.inf
    assert peak == 1e154
    assert cycles[0].rms_error == math.inf


def test_metrics_single_cycle_uses_all():
    res = _result(np.full(40, 50.0), np.full(40, 49.0), np.zeros(40, int))
    rms, _, _ = tracking_metrics(res)
    assert rms == pytest.approx(1.0)


def test_metrics_empty_result():
    empty = SimResult(
        time=np.array([]), reference=np.array([]), measured=np.array([]),
        tension_true=np.array([]), fsr=np.array([]), gc=np.array([]),
        cycle_index=np.array([], dtype=int), rms_error=0.0, peak_error=0.0,
    )
    with pytest.raises(EmptyResult):
        tracking_metrics(empty)


@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 600), min_size=1, max_size=8),
    steps=st.lists(st.integers(1, 3), min_size=8, max_size=8),
    first=st.integers(0, 2),
    scale=st.sampled_from([1.0, 1e152, 1e300]),
    seed=st.integers(0, 2**32 - 1),
)
def test_metrics_match_masked_metrics(lengths, steps, first, scale, seed):
    # Any nondecreasing cycle index, as run_simulation makes; cycles of up
    # to 600 ticks take numpy's pairwise sums past one 128-element block.
    # Large scales overflow the squares, or the errors, to inf.
    rng = np.random.default_rng(seed)
    cycles = first + np.cumsum([0] + steps[:len(lengths) - 1])
    cycle_index = np.repeat(cycles, lengths)
    n = len(cycle_index)
    time = np.arange(n) * 0.002
    reference = scale * rng.uniform(0.0, 1.0, n)
    measured = scale * rng.normal(0.0, 1.0, n)
    got = _metrics_from_arrays(time, reference, measured, cycle_index)
    assert repr(got) == repr(masked_metrics(time, reference, measured,
                                            cycle_index))


def test_cycle_summaries_cover_run():
    res = _run(n_cycles=4)
    assert [c.cycle for c in res.cycles] == [0, 1, 2, 3]
    for summary in res.cycles:
        assert isinstance(summary, CycleSummary)
        assert summary.end_time > summary.start_time
        assert summary.rms_error >= 0.0
        assert summary.peak_error >= summary.rms_error - 1e-12
    # Cycle windows tile the run without overlap.
    for a, b in zip(res.cycles, res.cycles[1:]):
        assert b.start_time > a.end_time


# --- kernel against the one-step oracle ------------------------------------------

_SERIES = ("time", "reference", "measured", "tension_true", "fsr", "gc",
           "cycle_index")


def _outcome(simulate, *args, **kwargs):
    """The result, or the NonFiniteState message when the plant diverges."""
    try:
        return simulate(*args, **kwargs)
    except NonFiniteState as exc:
        return str(exc)


def _assert_bit_identical(got, want):
    if isinstance(want, str):
        assert got == want
        return
    for name in _SERIES:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.rms_error.hex() == want.rms_error.hex()
    assert got.peak_error.hex() == want.peak_error.hex()
    assert got.cycles == want.cycles


_plant_params = st.builds(
    PlantParams,
    inertia=st.floats(0.005, 0.05),
    viscous_b=st.floats(0.001, 0.05),
    pulley_radius=st.floats(0.02, 0.06),
    cable_stiffness=st.floats(5e3, 5e4),
    cable_damping=st.floats(1.0, 100.0),
    sheath_mu=st.floats(0.0, 0.3),
    wrap_angle=st.floats(0.5, 2.0 * math.pi),
    loadcell_noise_sd=st.floats(0.0, 3.0),
    torque_max=st.floats(1.0, 10.0),
    control_rate=st.floats(200.0, 600.0),
    pretension=st.floats(1.0, 20.0),
)

_pid_gains = st.builds(
    PidGains,
    kp=st.floats(0.0, 0.02),
    ki=st.floats(0.0, 5.0),
    kd=st.floats(0.0, 0.02),
    ff_gain=st.floats(0.0, 0.08),
)


_profiles = st.builds(
    lambda gcs, peak_torque: TorqueProfile(*sorted(gcs), peak_torque),
    st.lists(st.floats(0.0, 100.0), min_size=3, max_size=3, unique=True),
    st.floats(0.0, 1e308),
)

@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_cycles=st.integers(1, 5),
    stride_jitter=st.sampled_from([0.0, 0.05]),
    reference=st.sampled_from([None, "below", "at", "above"]),
    params=_plant_params,
    gains=_pid_gains,
    profile=_profiles,
    conv=st.builds(TensionConversion, moment_arm=st.floats(0.01, 0.2)),
)
def test_run_simulation_matches_one_step_oracle(
    seed, n_cycles, stride_jitter, reference, params, gains, profile, conv,
):
    # Up to 5 cycles, so the 3-stride phase buffer rolls. A peak torque
    # near 1e308 overflows the tension to inf, which the plant then
    # rejects; tier-1 turns any numpy warning on the way into an error.
    # The constant reference sits against the pretension floor.
    constant_reference = {
        None: None,
        "below": 0.5 * params.pretension,
        "at": params.pretension,
        "above": params.pretension + 45.0,
    }[reference]
    args = (profile, conv, gains, params, n_cycles, seed)
    kwargs = dict(
        stride_jitter=stride_jitter,
        constant_reference=constant_reference,
    )
    _assert_bit_identical(_outcome(run_simulation, *args, **kwargs),
                          _outcome(oracle_simulation, *args, **kwargs))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("stride_jitter", [0.0, 0.05])
def test_default_run_matches_one_step_oracle(seed, stride_jitter):
    args = (DEFAULT_PROFILE, _CONV, DEFAULT_GAINS, PlantParams(), 2, seed)
    _assert_bit_identical(
        run_simulation(*args, stride_jitter=stride_jitter),
        oracle_simulation(*args, stride_jitter=stride_jitter),
    )


# One deterministic case per branch of the kernel: (profile, gains, plant,
# cycles, keyword arguments, the oracle branches the case must reach). A
# case that diverges compares the NonFiniteState messages.
_NOISY = replace(PlantParams(), loadcell_noise_sd=50.0)
_P = DEFAULT_PROFILE
_BRANCH_CASES = {
    "slack_cable": (_P, PidGains(0.0, 0.0, 0.0, 0.0), PlantParams(), 1, {},
                    {"slack"}),
    "deadband_hold": (_P, DEFAULT_GAINS, _QUIET, 3,
                      {"constant_reference": 50.0}, {"hold"}),
    "sliding_both_ways": (_P, DEFAULT_GAINS, PlantParams(), 1, {},
                          {"slide_feed", "slide_return"}),
    "output_saturation": (_P, PidGains(1.0, 2.0, 0.0, 0.0),
                          replace(_NOISY, torque_max=12.0), 1, {},
                          {"anti_windup_high", "anti_windup_low",
                           "output_clamp_high", "output_clamp_low"}),
    "integral_clamp_high": (_P, PidGains(0.0, 2.0, 0.0, 0.0), _QUIET, 1,
                            {"constant_reference": 300.0},
                            {"integral_clamp_high"}),
    "integral_clamp_low": (_P, PidGains(0.0, 2.0, 0.0, 0.2), _QUIET, 1,
                           {"constant_reference": 50.0},
                           {"integral_clamp_low"}),
    "frictionless_sheath": (_P, DEFAULT_GAINS, PlantParams(sheath_mu=0.0), 1,
                            {}, {"slide_feed", "slide_return"}),
    "torque_max_below_8": (_P, PidGains(1.0, 2.0, 0.0, 0.0),
                           replace(_NOISY, torque_max=4.0), 1, {},
                           {"anti_windup_high", "anti_windup_low",
                            "output_clamp_high", "output_clamp_low"}),
    "diverged_state": (_P, DEFAULT_GAINS, PlantParams(inertia=1e-7), 1, {},
                       set()),
    "diverged_nan_rate": (TorqueProfile(10.0, 40.0, 70.0, 1e308),
                          DEFAULT_GAINS, PlantParams(), 1, {}, {"rate_nan"}),
}


@pytest.mark.parametrize("case", list(_BRANCH_CASES))
def test_kernel_branch_matches_one_step_oracle(case):
    profile, gains, params, n_cycles, kwargs, branches = _BRANCH_CASES[case]
    args = (profile, _CONV, gains, params, n_cycles, 0)
    reached.clear()
    want = _outcome(oracle_simulation, *args, **kwargs)
    assert branches <= set(reached), sorted(reached)
    assert isinstance(want, str) == case.startswith("diverged")
    _assert_bit_identical(_outcome(run_simulation, *args, **kwargs), want)


# The four simulate operations of bench/run.py's closed_loop workload at
# --seed 1: 4 cycles each, the simulation seeds its plan draws, jitter 0
# and 0.05 in turn.
@pytest.mark.parametrize("seed, stride_jitter", [
    (1016164991, 0.0),
    (1099128568, 0.05),
    (1621709874, 0.0),
    (2041105244, 0.05),
])
def test_bench_runs_match_one_step_oracle(seed, stride_jitter):
    args = (DEFAULT_PROFILE, _CONV, DEFAULT_GAINS, PlantParams(), 4, seed)
    _assert_bit_identical(
        run_simulation(*args, stride_jitter=stride_jitter),
        oracle_simulation(*args, stride_jitter=stride_jitter),
    )


def test_divergence_message_matches_one_step_oracle():
    args = (DEFAULT_PROFILE, _CONV, DEFAULT_GAINS, PlantParams(inertia=1e-7),
            1, 0)
    with pytest.raises(NonFiniteState) as kernel:
        run_simulation(*args)
    with pytest.raises(NonFiniteState) as oracle:
        oracle_simulation(*args)
    assert str(kernel.value) == str(oracle.value)


# --- the oracle is independent of the library's rules -------------------------

# FSR bursts at 100 Hz, as (start sample, length, level), that reach every
# phase rule from both sides. A 3-sample run (the debounce) strikes at
# 0.1 s; runs starting 0.35 s and 0.45 s later sit either side of the
# 0.4 s refractory period; runs at 0.45 and 0.5 of full scale stay under
# the threshold and one at 0.55 strikes; a 2-sample run is too short;
# strides of 1.0 to 1.45 s follow, so the 3-stride buffer rolls.
_RULE_BURSTS = [
    (10, 3, 0.9), (45, 5, 0.9), (55, 5, 0.9), (120, 5, 0.45), (130, 5, 0.5),
    (150, 2, 0.9), (200, 5, 0.55), (300, 5, 0.9), (410, 5, 0.9),
    (530, 5, 0.9), (660, 5, 0.9),
]
_RULE_FSR = np.zeros(780)
for _start, _length, _level in _RULE_BURSTS:
    _RULE_FSR[_start : _start + _length] = _level


def _open_loop_mismatches(fsr, rate):
    """Which of the strikes, the GC% and the reference differ between the
    library's array forms and the oracle's tick-by-tick chain."""
    time = np.arange(len(fsr)) / rate
    detector, state = StrikeDetector(rate), PhaseState()
    fired, gc_want = [], []
    for i, value in enumerate(fsr.tolist()):
        strike = detector.step(value)
        if strike:
            fired.append(i)
        state, gc = update_phase(state, float(time[i]), strike)
        gc_want.append(gc)
    ref_want = [reference_tension(DEFAULT_PROFILE, _CONV, g) for g in gc_want]
    ticks = strike_ticks(fsr, rate)
    gc = phase_series(time, ticks)
    ref = reference_tensions(DEFAULT_PROFILE, _CONV, gc)
    same = {
        "strikes": ticks.tolist() == fired,
        "gc": gc.tobytes() == np.array(gc_want).tobytes(),
        "reference": ref.tobytes() == np.array(ref_want).tobytes(),
    }
    return {name for name, equal in same.items() if not equal}


def _linear(u):
    return u


# (library module, rule, changed value, the output that shows the change)
_RULE_CHANGES = [
    (phase, "_THRESHOLD", 0.4, "strikes"),
    (phase, "_THRESHOLD", 0.6, "strikes"),
    (phase, "_REFRACTORY_S", 0.3, "strikes"),
    (phase, "_REFRACTORY_S", 0.5, "strikes"),
    (phase, "_DEBOUNCE_SAMPLES", 2, "strikes"),
    (phase, "_DEBOUNCE_SAMPLES", 4, "strikes"),
    (phase, "_BUFFER_SIZE", 2, "gc"),
    (phase, "_BUFFER_SIZE", 4, "gc"),
    (phase, "DEFAULT_STRIDE_S", 1.0, "gc"),
    (assist, "_smoothstep", _linear, "reference"),
]


@pytest.mark.parametrize(
    "module, name, value, shows", _RULE_CHANGES,
    ids=[f"{name}={getattr(value, '__name__', value)}"
         for _, name, value, _ in _RULE_CHANGES],
)
def test_oracle_sees_a_change_to_each_library_rule(monkeypatch, module, name,
                                                   value, shows):
    # The oracle writes every rule out itself, so changing one in the
    # library alone must break the comparison.
    assert _open_loop_mismatches(_RULE_FSR, 100.0) == set()
    monkeypatch.setattr(module, name, value)
    assert shows in _open_loop_mismatches(_RULE_FSR, 100.0)
