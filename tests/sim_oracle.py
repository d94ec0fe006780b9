"""Reference closed loop for the simulator tests.

run_simulation steps the plant and the controller on plain floats inside
one tick loop. This module keeps the straightforward form of that loop:
every tick locates the stride with a scalar search, calls pid_step once
and plant_step once per substep through the public one-step API, and draws
the load-cell noise inside the last substep. The kernel must reproduce it
bit for bit.
"""

import math
from dataclasses import replace

import numpy as np

from exogait.assist import reference_tension
from exogait.phase import PhaseState, StrikeDetector, update_phase
from exogait.simulate import (
    PidState,
    PlantState,
    SimResult,
    pid_step,
    plant_step,
    tracking_metrics,
)

_FSR_STANCE_FRACTION = 0.15


def oracle_simulation(
    profile,
    conv,
    gains,
    params,
    phase_cfg,
    n_cycles,
    seed,
    *,
    stride_period=0.980,
    stride_jitter=0.0,
    constant_reference=None,
    anchor_amplitude=0.002,
    substeps=10,
):
    """Same arguments and result as run_simulation (inputs assumed valid)."""
    rng = np.random.default_rng(seed)
    durations = np.full(n_cycles, stride_period)
    if stride_jitter > 0:
        durations = durations * (
            1.0 + rng.uniform(-stride_jitter, stride_jitter, n_cycles)
        )
    starts = np.concatenate(([0.0], np.cumsum(durations)))
    total = float(starts[-1])
    dt_ctrl = 1.0 / params.control_rate
    dt_sub = dt_ctrl / substeps
    n_ticks = int(round(total * params.control_rate))

    def locate(t):
        k = int(np.searchsorted(starts, t, side="right")) - 1
        k = min(max(k, 0), n_cycles - 1)
        u = (t - starts[k]) / durations[k]
        return k, min(max(u, 0.0), 1.0)

    def anchor_at(t):
        _, u = locate(t)
        return anchor_amplitude * math.sin(math.pi * u) ** 2

    detector = StrikeDetector(params.control_rate, phase_cfg)
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
        ctrl_state, command = pid_step(gains, ctrl_state, ref, meas, dt_ctrl)
        for m in range(substeps):
            t_sub = t + (m + 1) * dt_sub
            sub_rng = rng if m == substeps - 1 else None
            plant = plant_step(
                params, plant, command, anchor_at(t_sub), dt_sub, rng=sub_rng
            )
    result = SimResult(
        time=time,
        reference=reference,
        measured=measured,
        tension_true=tension_true,
        fsr=fsr,
        gc=gc_series,
        cycle_index=cycle_index,
        rms_error=0.0,
        peak_error=0.0,
    )
    rms, peak, rows = tracking_metrics(result)
    return replace(result, rms_error=rms, peak_error=peak, cycles=rows)
