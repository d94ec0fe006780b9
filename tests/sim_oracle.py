"""Reference closed loop for the simulator tests.

run_simulation builds the strikes, GC% and reference as arrays, then steps
the plant and the controller on plain floats inside one tick loop. This
module keeps the same chain in its straightforward form, written out
independently of the library: a tick-by-tick strike detector
(StrikeDetector), a one-step phase estimator (update_phase), a scalar
assistance profile (reference_tension), a one-step controller (pid_step)
and a one-step plant (plant_step) on frozen state records. Its loop
locates the stride with a scalar search every tick, steps the strike
detector, update_phase and reference_tension, calls pid_step once and
plant_step once per substep, and draws the load-cell noise inside the last
substep, and scores the run with one boolean mask per cycle
(masked_metrics). The kernel must reproduce it bit for bit. It imports
nothing from exogait.phase or exogait.assist, so a change to a rule there
shows up as a mismatch.

`reached` counts the branches the one-step functions take, by name, so a
test can clear it, run the oracle and see which branches its case reached.
"""

import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from exogait.errors import EmptyResult, ExogaitError, NonFiniteState
from exogait.simulate import (
    CycleSummary,
    PidGains,
    PlantParams,
    SimResult,
    _metrics_from_arrays,
)

# The library's fixed values, written out again here so that the
# bit-identity properties check the library's constants independently.
_OUTPUT_LIMIT = 8.0  # Nm
_INTEGRATOR_LIMIT = 4.0  # Nm
_STRIDE_PERIOD = 0.980  # s
_ANCHOR_AMPLITUDE = 0.002  # m
_SUBSTEPS = 10
_D_FILTER_ALPHA = 1.0 / 11.0
_LOADCELL_MAX = 500.0  # N
_VELOCITY_DEADBAND = 1e-4  # m/s
_WRAPPED_ARC_FRACTION = 0.5
_THRESHOLD = 0.5  # FSR, fraction of full scale
_REFRACTORY_S = 0.4
_DEBOUNCE_SAMPLES = 3
_BUFFER_SIZE = 3
DEFAULT_STRIDE_S = 0.980  # expected stride before any has been measured

reached = Counter()


class TimeWentBackwards(ExogaitError):
    """Sample timestamps decreased; the stream is unusable."""


class StrikeDetector:
    """Sample-by-sample heel-strike detector (the rule in exogait.phase).

    step() returns True on the sample at which a run satisfies the debounce
    rule (so the flag lags the run start by 2 samples).
    """

    def __init__(self, rate: float) -> None:
        if not rate > 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = rate
        self._i = 0
        self._run_start: int | None = None
        self._run_len = 0
        self._decided = False
        self._last_emit: float | None = None

    def step(self, value: float) -> bool:
        fired = False
        if value > _THRESHOLD:
            if self._run_start is None:
                self._run_start, self._run_len = self._i, 1
                self._decided = False
            else:
                self._run_len += 1
            if not self._decided and self._run_len >= _DEBOUNCE_SAMPLES:
                self._decided = True
                t = self._run_start / self.rate
                if self._last_emit is None or t - self._last_emit >= _REFRACTORY_S:
                    self._last_emit = t
                    fired = True
        else:
            self._run_start = None
        self._i += 1
        return fired


@dataclass(frozen=True)
class PhaseState:
    """Immutable estimator state; update_phase returns a new one."""

    last_hs_time: float | None = None
    stride_buffer: tuple[float, ...] = ()
    last_time: float | None = None

    def __post_init__(self) -> None:
        if len(self.stride_buffer) > _BUFFER_SIZE:
            raise ValueError(
                f"stride_buffer holds at most {_BUFFER_SIZE} durations"
            )
        if any(d <= 0 for d in self.stride_buffer):
            raise ValueError("stride durations must be positive")

    @property
    def expected_stride(self) -> float:
        if self.stride_buffer:
            return sum(self.stride_buffer) / len(self.stride_buffer)
        return DEFAULT_STRIDE_S


def update_phase(
    state: PhaseState, now: float, heel_strike: bool
) -> tuple[PhaseState, float]:
    """Advance the estimator to time `now`; returns (new state, GC%).

    On a heel strike the elapsed stride is pushed into the duration buffer
    and GC% resets to 0. Otherwise GC% is elapsed time over the expected
    stride duration, clamped to [0, 100]; before the first strike it is 0.
    """
    if state.last_time is not None and now < state.last_time:
        raise TimeWentBackwards(
            f"time stepped from {state.last_time} back to {now}"
        )
    if heel_strike:
        buffer = state.stride_buffer
        if state.last_hs_time is not None:
            duration = now - state.last_hs_time
            if duration > 0:
                buffer = (buffer + (duration,))[-_BUFFER_SIZE:]
        return PhaseState(now, buffer, now), 0.0
    new = PhaseState(state.last_hs_time, state.stride_buffer, now)
    if state.last_hs_time is None:
        return new, 0.0
    gc = 100.0 * (now - state.last_hs_time) / state.expected_stride
    return new, min(max(gc, 0.0), 100.0)


def _smoothstep(u):
    return u * u * (3.0 - 2.0 * u)


def torque_at(profile, gc: float) -> float:
    """Assistance torque (Nm) at a gait-cycle percentage.

    Zero outside [onset, end]; smoothstep rise to peak_torque on
    [onset, peak] and smoothstep fall back to zero on [peak, end]. The value
    at peak_gc is exactly peak_torque.
    """
    if not 0.0 <= gc <= 100.0:
        raise ValueError(f"gc must be in [0, 100], got {gc}")
    if gc <= profile.onset_gc or gc >= profile.end_gc:
        return 0.0
    if gc <= profile.peak_gc:
        u = (gc - profile.onset_gc) / (profile.peak_gc - profile.onset_gc)
    else:
        u = (profile.end_gc - gc) / (profile.end_gc - profile.peak_gc)
    return profile.peak_torque * _smoothstep(u)


def torque_to_tension(torque: float, conv) -> float:
    """Ankle torque (Nm) to cable tension (N)."""
    if torque < 0:
        raise ValueError(f"torque must be >= 0, got {torque}")
    return torque / conv.moment_arm


def reference_tension(profile, conv, gc: float) -> float:
    """Desired cable tension (N) at a gait-cycle percentage."""
    return torque_to_tension(torque_at(profile, gc), conv)


@dataclass(frozen=True)
class PidState:
    integral: float = 0.0  # integral contribution, command units
    d_filt: float = 0.0  # filtered error derivative, N/s
    prev_error: float | None = None


@dataclass(frozen=True)
class PlantState:
    theta: float = 0.0  # rad
    omega: float = 0.0  # rad/s
    anchor_pos: float = 0.0  # m
    tension_true: float = 0.0  # N, distal side
    tension_measured: float = 0.0  # N
    sheath_exponent: float = 0.0  # log of the capstan factor, friction memory

    def __post_init__(self) -> None:
        if self.tension_true < 0 or self.tension_measured < 0:
            raise ValueError("cable tension cannot be negative")


def pid_step(
    gains: PidGains,
    ctrl_state: PidState,
    ref: float,
    meas: float,
    dt: float,
    output_limit: float = _OUTPUT_LIMIT,
) -> tuple[PidState, float]:
    """One controller update; returns (new state, torque command in Nm).

    The integral term accumulates in command units and is clamped at
    +/-4 Nm; while the output saturates at +/-output_limit in the
    direction of the current error the increment is discarded
    (anti-windup). The closed loop passes the lower of 8 Nm and the
    plant's torque_max. The derivative acts on a low-pass-filtered error
    difference (time constant 10*dt).
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    e = ref - meas
    if ctrl_state.prev_error is None:
        d_raw = 0.0
    else:
        d_raw = (e - ctrl_state.prev_error) / dt
    d = ctrl_state.d_filt + _D_FILTER_ALPHA * (d_raw - ctrl_state.d_filt)
    integral = ctrl_state.integral + gains.ki * e * dt
    if integral > _INTEGRATOR_LIMIT:
        reached["integral_clamp_high"] += 1
    elif integral < -_INTEGRATOR_LIMIT:
        reached["integral_clamp_low"] += 1
    integral = min(max(integral, -_INTEGRATOR_LIMIT), _INTEGRATOR_LIMIT)
    base = gains.ff_gain * ref + gains.kp * e + gains.kd * d
    u = base + integral
    if (u > output_limit and e > 0) or (u < -output_limit and e < 0):
        reached["anti_windup_high" if e > 0 else "anti_windup_low"] += 1
        integral = ctrl_state.integral
        u = base + integral
    if u > output_limit:
        reached["output_clamp_high"] += 1
    elif u < -output_limit:
        reached["output_clamp_low"] += 1
    command = min(max(u, -output_limit), output_limit)
    new = replace(ctrl_state, integral=integral, d_filt=d, prev_error=e)
    return new, command


def _motor_tension(params: PlantParams, stretch: float, stretch_rate: float) -> float:
    if stretch <= 0:
        reached["slack"] += 1
        return 0.0
    return params.cable_stiffness * stretch + params.cable_damping * max(
        0.0, stretch_rate
    )


def _sheath_exponent_step(
    params: PlantParams,
    exponent: float,
    stretch_rate: float,
    tension: float,
    dt: float,
) -> float:
    # Presliding friction memory: inside the stiction deadband the exponent
    # holds; while sliding it relaxes toward the branch for that direction
    # over the elastic take-up of the wrapped arc, so the factor never jumps
    # at a velocity reversal and equals each branch value in steady sliding.
    if abs(stretch_rate) <= _VELOCITY_DEADBAND:
        reached["hold"] += 1
        return exponent
    if stretch_rate > 0:
        reached["slide_feed"] += 1
    elif stretch_rate < 0:
        reached["slide_return"] += 1
    else:
        reached["rate_nan"] += 1
    arc_take_up = (
        _WRAPPED_ARC_FRACTION
        * max(tension, params.pretension)
        / params.cable_stiffness
    )
    target = -math.copysign(params.sheath_mu * params.wrap_angle, stretch_rate)
    decay = math.exp(-abs(stretch_rate) * dt / arc_take_up)
    return target + (exponent - target) * decay


def plant_step(
    params: PlantParams,
    state: PlantState,
    command: float,
    anchor_pos: float,
    dt: float,
    rng: np.random.Generator | None = None,
) -> PlantState:
    """Advance the plant by one substep under a held torque command.

    anchor_pos is the prescribed heel-anchor displacement at the end of the
    substep; its velocity is taken by finite difference from the previous
    state. Passing an rng adds load-cell noise to the measurement; None
    reads the true tension exactly.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if dt > 1.0 / params.control_rate + 1e-12:
        raise ValueError("plant substep must not exceed the control period")
    if command > params.torque_max:
        reached["torque_clamp_high"] += 1
    elif command < -params.torque_max:
        reached["torque_clamp_low"] += 1
    tau = min(max(command, -params.torque_max), params.torque_max)
    s0 = params.pretension / params.cable_stiffness
    anchor_vel = (anchor_pos - state.anchor_pos) / dt
    stretch = params.pulley_radius * state.theta - state.anchor_pos + s0
    stretch_rate = params.pulley_radius * state.omega - anchor_vel
    t_motor = _motor_tension(params, stretch, stretch_rate)
    omega = state.omega + dt / params.inertia * (
        tau - params.viscous_b * state.omega - params.pulley_radius * t_motor
    )
    theta = state.theta + dt * omega
    stretch_new = params.pulley_radius * theta - anchor_pos + s0
    rate_new = params.pulley_radius * omega - anchor_vel
    t_motor_new = _motor_tension(params, stretch_new, rate_new)
    exponent = _sheath_exponent_step(
        params, state.sheath_exponent, rate_new, t_motor_new, dt
    )
    t_distal = t_motor_new * math.exp(exponent)
    if not (math.isfinite(theta) and math.isfinite(omega) and math.isfinite(t_distal)):
        raise NonFiniteState(
            f"plant state diverged: theta={theta}, omega={omega}, tension={t_distal}"
        )
    noise = 0.0
    if rng is not None:
        noise = float(rng.normal(0.0, params.loadcell_noise_sd))
    measured = min(max(t_distal + noise, 0.0), _LOADCELL_MAX)
    return PlantState(
        theta=theta,
        omega=omega,
        anchor_pos=anchor_pos,
        tension_true=t_distal,
        tension_measured=measured,
        sheath_exponent=exponent,
    )


def masked_metrics(time, reference, measured, cycle_index):
    """_metrics_from_arrays's result, with one boolean mask per cycle."""
    with np.errstate(over="ignore"):
        err = np.abs(np.asarray(measured, float) - np.asarray(reference, float))
        square = err**2
        steady = np.asarray(cycle_index) >= 1
        if not steady.any():
            steady = np.ones(len(err), dtype=bool)
        rms = float(np.sqrt(np.mean(square[steady])))
        peak = float(err[steady].max())
        rows = []
        for k in np.unique(cycle_index):
            m = cycle_index == k
            rows.append(
                CycleSummary(
                    cycle=int(k),
                    start_time=float(np.asarray(time)[m][0]),
                    end_time=float(np.asarray(time)[m][-1]),
                    rms_error=float(np.sqrt(np.mean(square[m]))),
                    peak_error=float(err[m].max()),
                    mean_tension=float(np.mean(np.asarray(measured)[m])),
                )
            )
    return rms, peak, rows


def tracking_metrics(
    result: SimResult,
) -> tuple[float, float, list[CycleSummary]]:
    """RMS and peak of |measured - reference| over steady cycles.

    Steady means the second cycle onward; a result that never reaches a
    second cycle is scored over all ticks.
    """
    if len(result.time) == 0:
        raise EmptyResult("simulation result has no ticks")
    return _metrics_from_arrays(
        result.time, result.reference, result.measured, result.cycle_index
    )


_FSR_STANCE_FRACTION = 0.15


def oracle_simulation(
    profile,
    conv,
    gains,
    params,
    n_cycles,
    seed,
    *,
    stride_jitter=0.0,
    constant_reference=None,
):
    """Same arguments and result as run_simulation (inputs assumed valid)."""
    rng = np.random.default_rng(seed)
    durations = np.full(n_cycles, _STRIDE_PERIOD)
    if stride_jitter > 0:
        durations = durations * (
            1.0 + rng.uniform(-stride_jitter, stride_jitter, n_cycles)
        )
    starts = np.concatenate(([0.0], np.cumsum(durations)))
    total = float(starts[-1])
    dt_ctrl = 1.0 / params.control_rate
    dt_sub = dt_ctrl / _SUBSTEPS
    n_ticks = int(round(total * params.control_rate))

    def locate(t):
        k = int(np.searchsorted(starts, t, side="right")) - 1
        k = min(max(k, 0), n_cycles - 1)
        u = (t - starts[k]) / durations[k]
        return k, min(max(u, 0.0), 1.0)

    def anchor_at(t):
        _, u = locate(t)
        return _ANCHOR_AMPLITUDE * math.sin(math.pi * u) ** 2

    output_limit = min(_OUTPUT_LIMIT, params.torque_max)
    detector = StrikeDetector(params.control_rate)
    phase_state = PhaseState()
    ctrl_state = PidState()
    plant = PlantState(
        tension_true=params.pretension, tension_measured=params.pretension
    )
    time = np.empty(n_ticks)
    reference = np.empty(n_ticks)
    measured = np.empty(n_ticks)
    tension_true = np.empty(n_ticks)
    fsr = np.empty(n_ticks)
    gc_series = np.empty(n_ticks)
    cycle_index = np.empty(n_ticks, dtype=np.int64)
    for i in range(n_ticks):
        t = i * dt_ctrl
        k, u = locate(t)
        fsr_val = 1.0 if u < _FSR_STANCE_FRACTION else 0.0
        fired = detector.step(fsr_val)
        phase_state, gc = update_phase(phase_state, t, fired)
        if constant_reference is None:
            raw_ref = reference_tension(profile, conv, gc)
        else:
            raw_ref = constant_reference
        ref = max(params.pretension, raw_ref)
        meas = plant.tension_measured
        time[i] = t
        reference[i] = ref
        measured[i] = meas
        tension_true[i] = plant.tension_true
        fsr[i] = fsr_val
        gc_series[i] = gc
        cycle_index[i] = k
        ctrl_state, command = pid_step(
            gains, ctrl_state, ref, meas, dt_ctrl, output_limit
        )
        for m in range(_SUBSTEPS):
            t_sub = t + (m + 1) * dt_sub
            sub_rng = rng if m == _SUBSTEPS - 1 else None
            plant = plant_step(
                params, plant, command, anchor_at(t_sub), dt_sub, rng=sub_rng
            )
    rms, peak, rows = masked_metrics(time, reference, measured, cycle_index)
    return SimResult(
        time=time,
        reference=reference,
        measured=measured,
        tension_true=tension_true,
        fsr=fsr,
        gc=gc_series,
        cycle_index=cycle_index,
        rms_error=rms,
        peak_error=peak,
        cycles=rows,
    )
