"""Closed-loop cable-tension simulator: PID plus feedforward around a
motor/pulley/Bowden-cable/load-cell plant.

Plant model: a motor with inertia J and viscous drag b winds a cable onto a
pulley of radius r_p. Cable stretch s = r_p*theta - anchor_pos + s0 (s0 set
so tension equals the pretension at rest) produces motor-side tension
k_c*max(0, s) + c_c*max(0, ds/dt) while the cable is taut; a slack cable
carries none (a cable cannot push). The sheath applies a capstan factor
exp(-mu*phi) while the cable feeds steadily toward the anchor and
exp(+mu*phi) when it returns. Between those branches the exponent is a
presliding friction state: it relaxes toward the active branch over a
couple of millimetres of slip (elastic take-up inside the wrapped arc) and
holds wherever it is below a small velocity deadband standing in for
stiction, so the factor starts at 1, never jumps, and the sheath only ever
dissipates. The load cell reads the distal tension plus Gaussian noise,
clamped to its 0-500 N range. Integration is semi-implicit Euler with the
commanded torque held over each substep.

The controller adds feedforward to PID on the tension error, and its
output is clamped to +/-8 Nm, or to the plant's +/-torque_max when that is
lower, so the command never exceeds what the motor delivers. The integral
term accumulates in command units, is clamped at +/-4 Nm, and drops its
increment while the output saturates in the direction of the error
(anti-windup). The derivative acts on a low-pass-filtered error difference
(time constant 10*dt).

run_simulation drives a synthetic gait of 0.980 s strides, optionally
jittered, and steps the plant 10 times per control tick: each stride the
anchor follows 2 mm * sin(pi*u)^2 over the stride fraction u, a synthetic
FSR is high for the first 15 % of the stride, heel strikes detected from
that signal feed the phase estimator, and the assistance profile maps the
estimated GC% to the tension reference (floored at the pretension so the
cable stays taut in zero-torque mode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .assist import TensionConversion, TorqueProfile, reference_tensions
from .errors import NonFiniteState
from .phase import DEFAULT_STRIDE_S, phase_series, strike_ticks

# Stand-in for stiction: below this cable speed the sheath exponent holds.
_VELOCITY_DEADBAND = 1e-4  # m/s

# Presliding: the capstan exponent relaxes to the sliding-direction branch
# over the elastic take-up of the wrapped arc, roughly this fraction of the
# total cable stretch (tension / cable_stiffness) at the current load.
_WRAPPED_ARC_FRACTION = 0.5

# Synthetic FSR duty cycle: high during early stance.
_FSR_STANCE_FRACTION = 0.15

# Derivative low-pass alpha for a time constant of 10*dt.
_D_FILTER_ALPHA = 1.0 / 11.0

# Controller output and integral-term limits: the command is clamped to
# +/-min(_OUTPUT_LIMIT, torque_max), and anti-windup keys on that clamp, so
# the controller saturates where the motor does.
_OUTPUT_LIMIT = 8.0  # Nm
_INTEGRATOR_LIMIT = 4.0  # Nm held by the integral term

# Peak heel-anchor excursion over a stride.
_ANCHOR_AMPLITUDE = 0.002  # m

# Plant substeps per control tick.
_SUBSTEPS = 10

# Full scale of the load cell, fixed by the sensor: measured tension is
# clipped to [0, _LOADCELL_MAX].
_LOADCELL_MAX = 500.0  # N

# run_simulation builds substep anchors this many ticks at a time, so its
# memory does not grow with the run length.
_TICK_BLOCK = 128


@dataclass(frozen=True)
class PidGains:
    kp: float  # Nm per N of error
    ki: float  # Nm per N*s
    kd: float  # Nm per N/s
    ff_gain: float  # Nm per N of reference (static plant inverse is r_p)

    def __post_init__(self) -> None:
        for name in ("kp", "ki", "kd", "ff_gain"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite")


@dataclass(frozen=True)
class PlantParams:
    inertia: float = 0.02  # kg*m^2
    viscous_b: float = 0.01  # Nm*s
    pulley_radius: float = 0.04  # m
    cable_stiffness: float = 20000.0  # N/m
    cable_damping: float = 50.0  # N*s/m
    sheath_mu: float = 0.10
    wrap_angle: float = math.pi  # rad
    loadcell_noise_sd: float = 1.0  # N
    torque_max: float = 8.0  # Nm
    control_rate: float = 500.0  # Hz
    pretension: float = 5.0  # N

    def __post_init__(self) -> None:
        if not 0 <= self.sheath_mu < math.inf:
            raise ValueError("sheath_mu must be nonnegative and finite")
        for name in (
            "inertia",
            "viscous_b",
            "pulley_radius",
            "cable_stiffness",
            "cable_damping",
            "wrap_angle",
            "torque_max",
            "control_rate",
            "pretension",
        ):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0 <= self.loadcell_noise_sd < math.inf:
            raise ValueError("loadcell_noise_sd must be nonnegative and finite")


@dataclass(frozen=True)
class CycleSummary:
    cycle: int
    start_time: float
    end_time: float
    rms_error: float
    peak_error: float
    mean_tension: float


@dataclass(frozen=True)
class SimResult:
    time: np.ndarray
    reference: np.ndarray
    measured: np.ndarray
    tension_true: np.ndarray
    fsr: np.ndarray
    gc: np.ndarray
    cycle_index: np.ndarray
    rms_error: float
    peak_error: float
    cycles: list[CycleSummary] = field(default_factory=list)

    def __post_init__(self) -> None:
        n = len(self.time)
        for name in ("reference", "measured", "tension_true", "fsr", "gc", "cycle_index"):
            if len(getattr(self, name)) != n:
                raise ValueError("result series must have equal length")
        if self.rms_error < 0:
            raise ValueError("rms_error must be nonnegative")


# Tuned against the default plant: worst steady-cycle RMS over 20 noise
# seeds is 7.61 N, and the constant-reference noise-free run settles to the
# reference exactly once the sheath sticks.
DEFAULT_GAINS = PidGains(kp=0.005, ki=2.0, kd=0.005, ff_gain=0.04)


def _metrics_from_arrays(
    time: np.ndarray,
    reference: np.ndarray,
    measured: np.ndarray,
    cycle_index: np.ndarray,
) -> tuple[float, float, list[CycleSummary]]:
    """Steady-cycle RMS and peak of |measured - reference|, and one
    CycleSummary per cycle.

    cycle_index must never decrease, as run_simulation makes it: each cycle
    is then one contiguous slice, and its means and maximum run over the
    same elements in the same order as a per-cycle boolean mask would
    select them, so the figures are the same bit for bit.
    """
    # An error above about 1e154 N squares to inf, and squares near the
    # float maximum sum to inf in the mean; the RMS (or mean tension) is
    # then inf, as the float arithmetic gives it, without a warning.
    time = np.asarray(time)
    measured = np.asarray(measured)
    cycle_index = np.asarray(cycle_index)
    with np.errstate(over="ignore"):
        err = np.abs(np.asarray(measured, float) - np.asarray(reference, float))
        square = err**2
        steady = cycle_index >= 1
        if not steady.any():
            steady = np.ones(len(err), dtype=bool)
        rms = float(np.sqrt(np.mean(square[steady])))
        peak = float(err[steady].max())
        bounds = (np.flatnonzero(np.diff(cycle_index)) + 1).tolist()
        rows = [
            CycleSummary(
                cycle=int(cycle_index[lo]),
                start_time=float(time[lo]),
                end_time=float(time[hi - 1]),
                rms_error=float(np.sqrt(np.mean(square[lo:hi]))),
                peak_error=float(err[lo:hi].max()),
                mean_tension=float(np.mean(measured[lo:hi])),
            )
            for lo, hi in zip([0, *bounds], [*bounds, len(err)])
        ]
    return rms, peak, rows


def _stride_position(
    starts: np.ndarray, durations: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cycle index and stride fraction u in [0, 1] at every time in t."""
    k = np.clip(np.searchsorted(starts, t, side="right") - 1, 0, len(durations) - 1)
    return k, np.clip((t - starts[k]) / durations[k], 0.0, 1.0)


def run_simulation(
    profile: TorqueProfile,
    conv: TensionConversion,
    gains: PidGains,
    params: PlantParams,
    n_cycles: int,
    seed: int,
    *,
    stride_jitter: float = 0.0,
    constant_reference: float | None = None,
) -> SimResult:
    """Run the closed loop for n_cycles synthetic strides.

    Deterministic in (arguments, seed): stride jitter is drawn first, then
    one load-cell noise sample per control tick. constant_reference bypasses
    the profile with a fixed tension reference. The reference is floored at
    the plant pretension so zero-torque mode keeps the cable taut.

    The FSR, strikes, GC% and reference depend on the stride timing
    alone, so they are built as arrays before the tick loop, which then
    runs only the controller and the plant, inlined on plain floats.
    tests/sim_oracle.py keeps the same chain tick by tick, with one-step
    functions (pid_step, plant_step) for the physics, and the kernel must
    match it bit for bit.

    After each substep one arithmetic guard, theta - theta + omega - omega
    == 0.0 and 0.0 <= tension < inf, holds exactly when theta, omega and
    the distal tension are finite and the tension is not negative. Only
    when it fails does the kernel run plant_step's checks, in plant_step's
    order: NonFiniteState naming theta, omega and the tension when one of
    them is not finite, otherwise ValueError for a negative tension. The
    errors and their messages are the oracle's.
    """
    if n_cycles < 1:
        raise ValueError(f"n_cycles must be >= 1, got {n_cycles}")
    if not 0 <= stride_jitter < 1:
        raise ValueError("stride_jitter must be in [0, 1)")
    if constant_reference is not None and not math.isfinite(constant_reference):
        raise ValueError(
            f"constant_reference must be finite, got {constant_reference!r}"
        )
    rng = np.random.default_rng(seed)
    durations = np.full(n_cycles, DEFAULT_STRIDE_S)
    if stride_jitter > 0:
        durations = durations * (
            1.0 + rng.uniform(-stride_jitter, stride_jitter, n_cycles)
        )
    starts = np.concatenate(([0.0], np.cumsum(durations)))
    total = float(starts[-1])
    dt_ctrl = 1.0 / params.control_rate
    dt_sub = dt_ctrl / _SUBSTEPS
    ticks = total * params.control_rate
    if not (math.isfinite(ticks) and round(ticks) >= 1):
        raise ValueError(
            f"a {total!r} s run at {params.control_rate!r} Hz is {ticks!r} "
            "control ticks; need a finite count of at least 1"
        )
    n_ticks = int(round(ticks))
    noise = rng.normal(0.0, params.loadcell_noise_sd, n_ticks)
    time = np.arange(n_ticks) * dt_ctrl
    cycle_index, u = _stride_position(starts, durations, time)
    fsr = np.where(u < _FSR_STANCE_FRACTION, 1.0, 0.0)
    # Substep m of a tick ends at t + (m + 1) * dt_sub.
    substep_offsets = np.arange(1, _SUBSTEPS + 1) * dt_sub

    # The open-loop chain: FSR strikes, GC% and the reference.
    gc_series = phase_series(time, strike_ticks(fsr, params.control_rate))
    if constant_reference is None:
        raw_ref = reference_tensions(profile, conv, gc_series)
    else:
        raw_ref = np.full(n_ticks, constant_reference)
    # Builtin max(pretension, raw_ref), entry by entry.
    reference = np.where(raw_ref > params.pretension, raw_ref, params.pretension)

    kp, ki, kd, ff_gain = gains.kp, gains.ki, gains.kd, gains.ff_gain
    output_limit = min(_OUTPUT_LIMIT, params.torque_max)
    limit = _INTEGRATOR_LIMIT
    amplitude, pi, inf = _ANCHOR_AMPLITUDE, math.pi, math.inf
    deadband, arc_fraction = _VELOCITY_DEADBAND, _WRAPPED_ARC_FRACTION
    radius = params.pulley_radius
    stiffness, damping = params.cable_stiffness, params.cable_damping
    viscous_b = params.viscous_b
    pretension, loadcell_max = params.pretension, _LOADCELL_MAX
    s0 = pretension / stiffness
    dt_over_inertia = dt_sub / params.inertia
    branch = params.sheath_mu * params.wrap_angle
    neg_branch = -branch  # -copysign(branch, rate) for rate > 0
    sin, exp = math.sin, math.exp

    integral, d_filt, prev_error = 0.0, 0.0, None
    theta = omega = anchor_pos = exponent = 0.0
    # radius * theta - anchor_pos + s0 at rest; each substep leaves the
    # stretch of its end state, which the next substep starts from.
    stretch = s0
    t_distal = measured_now = pretension
    measured = np.empty(n_ticks)
    tension_true = np.empty(n_ticks)
    for lo in range(0, n_ticks, _TICK_BLOCK):
        block = slice(lo, lo + _TICK_BLOCK)
        _, u_sub = _stride_position(
            starts, durations, time[block, None] + substep_offsets
        )
        # Python's float ** 2, as the oracle computes it; numpy's square
        # can round differently.
        anchor_rows = [
            [amplitude * sin(pi * u) ** 2 for u in row] for row in u_sub.tolist()
        ]
        measured_block, true_block = [], []
        for ref, noise_val, anchors in zip(
            reference[block].tolist(), noise[block].tolist(), anchor_rows
        ):
            measured_block.append(measured_now)
            true_block.append(t_distal)

            # The oracle's pid_step; the conditional expressions are its
            # min(max(value, low), high) clamps, unrolled.
            e = ref - measured_now
            d_raw = 0.0 if prev_error is None else (e - prev_error) / dt_ctrl
            d_filt = d_filt + _D_FILTER_ALPHA * (d_raw - d_filt)
            integral_new = integral + ki * e * dt_ctrl
            if integral_new < -limit:
                integral_new = -limit
            elif integral_new > limit:
                integral_new = limit
            base = ff_gain * ref + kp * e + kd * d_filt
            u_cmd = base + integral_new
            if (u_cmd > output_limit and e > 0.0) or (
                u_cmd < -output_limit and e < 0.0
            ):
                u_cmd = base + integral
            else:
                integral = integral_new
            prev_error = e
            # The clamped command is the motor torque: it lies within
            # +/-torque_max, where plant_step's own clamp is the identity.
            if u_cmd < -output_limit:
                tau = -output_limit
            elif u_cmd > output_limit:
                tau = output_limit
            else:
                tau = u_cmd

            # The oracle's plant_step, once per substep. The conditional
            # expressions are builtin max(0.0, rate) and
            # max(t_motor, pretension), unrolled; the sliding branches
            # split -copysign(branch, rate) and abs(rate) by the sign of
            # the rate.
            for anchor in anchors:
                anchor_vel = (anchor - anchor_pos) / dt_sub
                if stretch <= 0.0:
                    t_motor = 0.0
                else:
                    rate = radius * omega - anchor_vel
                    t_motor = stiffness * stretch + damping * (
                        rate if rate > 0.0 else 0.0
                    )
                omega = omega + dt_over_inertia * (
                    tau - viscous_b * omega - radius * t_motor
                )
                theta = theta + dt_sub * omega
                stretch = radius * theta - anchor + s0
                rate = radius * omega - anchor_vel
                if stretch <= 0.0:
                    t_motor = 0.0
                else:
                    t_motor = stiffness * stretch + damping * (
                        rate if rate > 0.0 else 0.0
                    )
                if rate > deadband:
                    arc_take_up = arc_fraction * (
                        pretension if pretension > t_motor else t_motor
                    ) / stiffness
                    exponent = neg_branch + (exponent - neg_branch) * exp(
                        -rate * dt_sub / arc_take_up
                    )
                elif rate < -deadband:
                    arc_take_up = arc_fraction * (
                        pretension if pretension > t_motor else t_motor
                    ) / stiffness
                    exponent = branch + (exponent - branch) * exp(
                        rate * dt_sub / arc_take_up
                    )
                elif rate != rate:
                    # A NaN rate makes the exponent NaN, as exp(nan) does
                    # in the update above.
                    exponent = rate
                t_distal = t_motor * exp(exponent)
                # True exactly when theta and omega are finite and
                # 0 <= t_distal < inf; otherwise the checks below, in the
                # oracle's order, raise.
                if not (
                    theta - theta + omega - omega == 0.0
                    and 0.0 <= t_distal < inf
                ):
                    if not (
                        math.isfinite(theta)
                        and math.isfinite(omega)
                        and math.isfinite(t_distal)
                    ):
                        raise NonFiniteState(
                            f"plant state diverged: theta={theta}, "
                            f"omega={omega}, tension={t_distal}"
                        )
                    raise ValueError("cable tension cannot be negative")
                anchor_pos = anchor
            measured_now = t_distal + noise_val
            if measured_now < 0.0:
                measured_now = 0.0
            elif measured_now > loadcell_max:
                measured_now = loadcell_max
        measured[block] = measured_block
        tension_true[block] = true_block
    rms, peak, rows = _metrics_from_arrays(time, reference, measured, cycle_index)
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
