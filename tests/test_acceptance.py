"""Acceptance gate: ten numbered end-to-end checks with runtime budgets.

Each check prints one PASS/FAIL line (run with ``pytest -s`` to see the
lines on success). Checks 1-3 and 5 are exact fixtures; 4 compares the
mixed-model fit against a dense-grid oracle; 6 is a distribution-level
replication study; 7-10 exercise smoothing, file round-trips, the
closed-loop controller, and phase estimation end to end.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from exogait.assist import (
    DEFAULT_PROFILE,
    TensionConversion,
    TorqueProfile,
    reference_tensions,
)
from exogait.c3d import read_c3d, write_c3d
from exogait.cycles import Stride, normalize_cycle, temporal_params
from exogait.errors import MalformedHeader, TruncatedData
from exogait.phase import detect_heel_strikes, phase_series, strike_ticks
from exogait.preprocess import smooth_to_mse, smooth_with_lambda
from exogait.simulate import DEFAULT_GAINS, PlantParams, run_simulation
from exogait.stats import tost_welch
from exogait.trial import (
    AnalogChannel,
    EventKind,
    GaitEvent,
    MarkerTrajectory,
    Side,
    Trial,
)
from stats_oracle import Observation, compare, lme_oracle


@contextmanager
def _criterion(number: int, label: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None and elapsed >= budget_s:
        print(f"criterion {number:2d} ({label}): FAIL (over budget)")
        raise AssertionError(
            f"criterion {number} took {elapsed:.2f} s, budget {budget_s} s"
        )
    print(f"criterion {number:2d} ({label}): PASS ({elapsed:.2f} s)")


def test_criterion_01_torque_trajectory_fixture():
    with _criterion(1, "torque trajectory fixture", 1.0):
        profile = TorqueProfile(onset_gc=23.2, peak_gc=50.4, end_gc=62.7,
                                peak_torque=10.0)
        # Over a 1 m moment arm the tension is the torque.
        torque = reference_tensions(profile, TensionConversion(moment_arm=1.0),
                                    np.array([50.4, 23.2, 62.7, 36.8]))
        assert torque[0] == 10.0
        assert torque[1] == pytest.approx(0.0, abs=1e-12)
        assert torque[2] == pytest.approx(0.0, abs=1e-12)
        assert torque[3] == pytest.approx(5.0, abs=1e-9)
        conv = TensionConversion()
        assert reference_tensions(profile, conv, np.array([50.4]))[0] \
            == pytest.approx(166.71, abs=0.05)


def test_criterion_02_temporal_arithmetic_fixture():
    with _criterion(2, "temporal parameter fixture", 1.0):
        stride = Stride(side=Side.LEFT, start_time=0.0, end_time=0.980,
                        foot_off_time=0.559)
        t = temporal_params(stride)
        assert t.stance_duration == pytest.approx(0.559, abs=1e-12)
        assert t.swing_duration == pytest.approx(0.421, abs=1e-12)
        # 100*0.559/0.980 = 57.0408...; 57.041 is its 3-decimal rounding
        assert t.stance_pct == pytest.approx(100.0 * 0.559 / 0.980, abs=1e-9)
        assert round(t.stance_pct, 3) == 57.041
        assert t.stance_pct + t.swing_pct == 100.0


def test_criterion_03_normalization_fixtures():
    with _criterion(3, "cycle normalization fixtures"):
        stride = Stride(side=Side.LEFT, start_time=0.0, end_time=1.0)
        ramp = normalize_cycle(np.arange(11.0), 10.0, stride)
        assert ramp.shape == (101,)
        np.testing.assert_allclose(
            ramp, np.linspace(0.0, 10.0, 101), atol=1e-12)

        values = np.sin(np.linspace(0.0, 3.0, 101))
        identity = normalize_cycle(values, 100.0,
                                   Stride(side=Side.LEFT, start_time=0.0,
                                          end_time=1.0))
        assert identity.shape == (101,)
        np.testing.assert_allclose(identity, values, atol=1e-12)


def _random_dataset(rng, effect):
    observations = []
    for condition in (0, 1):
        for trial in range(int(rng.integers(2, 6))):
            level = effect * condition + rng.normal(0.0, 1.0)
            for _ in range(int(rng.integers(3, 11))):
                observations.append(Observation(
                    value=level + rng.normal(0.0, 1.0),
                    condition=condition,
                    trial_id=f"c{condition}t{trial}",
                ))
    return observations


_COARSE_GRID = [0.0] + np.geomspace(1e-8, 1e6, 57).tolist()


def _refined_oracle(observations):
    """Dense-grid REML oracle: coarse sweep, then a fine sweep around it."""
    coarse = lme_oracle(observations, _COARSE_GRID)
    lam = coarse.sigma_b2 / coarse.sigma_e2 if coarse.sigma_e2 > 0 else 0.0
    if lam == 0.0:
        fine = [0.0] + np.geomspace(1e-10, 1e-7, 60).tolist()
    else:
        step = (1e6 / 1e-8) ** (1.0 / 56.0)
        fine = [0.0] + np.geomspace(lam / step, lam * step, 600).tolist()
    return lme_oracle(observations, fine)


def test_criterion_04_lme_matches_grid_oracle():
    with _criterion(4, "mixed-model fit vs grid oracle", 10.0):
        rng = np.random.default_rng(424242)
        for _ in range(25):
            observations = _random_dataset(rng, float(rng.uniform(-2.0, 2.0)))
            fit = compare(observations)[0]
            oracle = _refined_oracle(observations)
            assert fit.log_reml >= oracle.log_reml - 1e-9
            assert fit.beta1 == pytest.approx(oracle.beta1, abs=1e-4)


def test_criterion_05_tost_hand_fixture():
    with _criterion(5, "equivalence test fixture", 1.0):
        result = tost_welch([10.0, 10.2, 10.4], [10.3, 10.5, 10.7], 2.0)
        assert result.diff == pytest.approx(-0.3, abs=1e-12)
        assert result.se_welch == pytest.approx(0.16330, abs=1e-5)
        assert result.df_welch == pytest.approx(4.0, abs=1e-9)
        assert result.equivalent


def _replication_study(rng, diff, n_trials=3, n_strides=10):
    """One synthetic two-condition session with per-trial random shifts."""
    observations = []
    for condition in (0, 1):
        for trial in range(n_trials):
            level = 12.0 + diff * condition + rng.normal(0.0, 0.10)
            for _ in range(n_strides):
                observations.append(Observation(
                    value=level + rng.normal(0.0, 0.70),
                    condition=condition,
                    trial_id=f"c{condition}t{trial}",
                ))
    return observations


def test_criterion_06_equivalence_replication_rates():
    with _criterion(6, "synthetic replication study", 60.0):
        rng = np.random.default_rng(20260816)
        equivalent = detected = 0
        for _ in range(200):
            observations = _replication_study(rng, 1.24)
            fit, means_a, means_b = compare(observations)
            if tost_welch(means_a, means_b, 2.0).equivalent:
                equivalent += 1
            if fit.p_wald < 0.01:
                detected += 1
        assert equivalent / 200 > 0.80
        # the point of the design: the difference is real and detectable
        # even while it sits inside the +-2 degree equivalence bounds
        assert detected / 200 > 0.50

        rng = np.random.default_rng(20260816)
        equivalent_large = sum(
            tost_welch(*compare(_replication_study(rng, 5.0))[1:],
                       2.0).equivalent
            for _ in range(200)
        )
        assert equivalent_large / 200 < 0.05


def test_criterion_07_smoothing_mse_and_monotonicity():
    with _criterion(7, "smoothing target and lambda sweep", 10.0):
        rng = np.random.default_rng(77)
        t = np.arange(500) / 100.0
        clean = 50.0 * np.sin(2.0 * np.pi * t)
        noisy = clean + rng.normal(0.0, math.sqrt(10.0), t.size)
        _, mse, met = smooth_to_mse(noisy, 100.0, 10.0)
        assert met
        assert 9.5 <= mse <= 10.5

        grid = np.geomspace(1e-8, 1e6, 20)
        for _ in range(10):
            n = int(rng.integers(200, 500))
            tt = np.arange(n) / 100.0
            series = (
                rng.uniform(5.0, 60.0) * np.sin(2.0 * np.pi *
                                                rng.uniform(0.5, 3.0) * tt)
                + rng.normal(0.0, rng.uniform(0.5, 4.0), n)
            )
            previous = None
            for lam in grid:
                smoothed = smooth_with_lambda(series, 100.0, lam)
                current = float(np.mean((series - smoothed) ** 2))
                if previous is not None:
                    # slack absorbs roundoff on the stiff-lambda plateau
                    assert current >= previous - 1e-5 * (1.0 + previous)
                previous = current


def _round_trip_trial(rng):
    n_frames = int(rng.integers(20, 200))
    point_rate = float(rng.choice([100.0, 120.0, 200.0]))
    spf = int(rng.integers(1, 5))
    markers = []
    for i in range(int(rng.integers(1, 12))):
        coords = rng.uniform(-1000.0, 1000.0, (n_frames, 3))
        valid = rng.random(n_frames) > 0.1
        if not valid.any():
            valid[0] = True
        markers.append(MarkerTrajectory(label=f"M{i + 1}", coords=coords,
                                        valid=valid))
    analogs = []
    for c in range(int(rng.integers(0, 4))):
        # float32 grid so the word-for-word storage is exact
        samples = rng.normal(0.0, 5.0, n_frames * spf).astype(np.float32)
        analogs.append(AnalogChannel(label=f"CH{c + 1}",
                                     samples=samples.astype(float),
                                     rate=point_rate * spf, units="V"))
    duration = (n_frames - 1) / point_rate
    # event times on the 1/64 s grid survive float32 storage exactly
    times = np.unique(np.round(rng.uniform(0.0, duration, 5) * 64.0) / 64.0)
    events = [
        GaitEvent(
            time=float(t),
            side=Side.LEFT if rng.random() < 0.5 else Side.RIGHT,
            kind=(EventKind.FOOT_STRIKE if rng.random() < 0.5
                  else EventKind.FOOT_OFF),
        )
        for t in times
    ]
    return Trial(
        markers=markers, analogs=analogs, events=events,
        point_rate=point_rate,
        analog_rate=point_rate * spf if analogs else point_rate,
        first_frame=1, last_frame=n_frames,
        subject_meta={"SUBJECT": "S01", "CONDITION": "NoExo"},
    )


def test_criterion_08_c3d_round_trip_and_malformed():
    with _criterion(8, "motion file round-trips", 10.0):
        rng = np.random.default_rng(808)
        data = b""
        for _ in range(50):
            trial = _round_trip_trial(rng)
            data = write_c3d(trial)
            back = read_c3d(data)
            for orig, rec in zip(trial.markers, back.markers):
                np.testing.assert_array_equal(orig.valid, rec.valid)
                np.testing.assert_allclose(rec.coords[orig.valid],
                                           orig.coords[orig.valid], atol=1e-4)
            for orig, rec in zip(trial.analogs, back.analogs):
                np.testing.assert_array_equal(rec.samples, orig.samples)
            assert len(back.events) == len(trial.events)
            for orig, rec in zip(sorted(trial.events), back.events):
                assert (rec.time, rec.side, rec.kind) == (
                    orig.time, orig.side, orig.kind)

        bad_magic = bytearray(data)
        bad_magic[1] = 0
        with pytest.raises(MalformedHeader):
            read_c3d(bytes(bad_magic))
        # the writer pads to 512-byte blocks, so cut inside real content
        for cut in (len(data) - 300, len(data) // 2, 600):
            with pytest.raises(TruncatedData):
                read_c3d(data[:cut])


def test_criterion_09_closed_loop_tracking():
    with _criterion(9, "closed-loop tension tracking", 30.0):
        conv = TensionConversion()
        params = PlantParams()  # loadcell noise sd 1 N
        runs = {}
        for seed in (0, 1, 2):
            runs[seed] = run_simulation(DEFAULT_PROFILE, conv, DEFAULT_GAINS,
                                        params, 10, seed)
            assert runs[seed].rms_error < 0.05 * 166.71

        zero = TorqueProfile(onset_gc=23.2, peak_gc=50.4, end_gc=62.7,
                             peak_torque=0.0)
        quiet = run_simulation(zero, conv, DEFAULT_GAINS, params, 10, 0)
        assert float(np.mean(quiet.tension_true)) <= params.pretension + 1.0

        again = run_simulation(DEFAULT_PROFILE, conv, DEFAULT_GAINS, params,
                               10, 0)
        for field in ("time", "reference", "measured", "tension_true",
                      "fsr", "gc", "cycle_index"):
            assert np.array_equal(getattr(again, field),
                                  getattr(runs[0], field))


def test_criterion_10_phase_estimation():
    with _criterion(10, "phase estimation and strike recall", 10.0):
        sim = run_simulation(DEFAULT_PROFILE, TensionConversion(),
                             DEFAULT_GAINS, PlantParams(), 100, 2,
                             stride_jitter=0.05)
        assert np.all((sim.gc >= 0.0) & (sim.gc <= 100.0))

        # synthetic 100-stride walk with known strike samples
        rate = 100.0
        rng = np.random.default_rng(1010)
        durations = np.round(98.0 * (1.0 + rng.uniform(-0.05, 0.05, 100)))
        starts = 10 + np.concatenate(([0], np.cumsum(durations[:-1]))).astype(int)
        n = int(starts[-1] + durations[-1])
        signal = np.zeros(n)
        for s, d in zip(starts, durations):
            signal[s : s + int(0.6 * d)] = 0.9
        noisy = np.clip(signal + rng.normal(0.0, 0.05, n), 0.0, 1.0)

        expected = starts / rate
        detected = detect_heel_strikes(noisy, rate)
        assert np.array_equal(detected, expected)  # full recall, no extras

        ticks = strike_ticks(noisy, rate)
        gc = phase_series(np.arange(n) / rate, ticks)
        assert np.all((gc >= 0.0) & (gc <= 100.0))
        assert np.all(gc[ticks] == 0.0)
        assert len(ticks) == 100
