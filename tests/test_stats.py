"""Tests for the random-intercept mixed model and TOST equivalence test.

Two independent routes are held against each other throughout: the
closed-form REML profiling in compare_trials versus the dense-matrix grid
oracle, and scipy's Student-t tail versus an mpmath incomplete-beta
evaluation.
"""

import dataclasses
import json
import math

import mpmath
import numpy as np
import pytest
from scipy.special import stdtr

from exogait.errors import SingularDesign
from exogait.stats import compare_trials, tost_welch, wald_p
from stats_oracle import Observation, compare, lme_oracle


def _obs(values_by_trial):
    """values_by_trial: list of (trial_id, condition, [values])."""
    out = []
    for trial_id, condition, values in values_by_trial:
        for v in values:
            out.append(
                Observation(value=v, condition=condition, trial_id=trial_id)
            )
    return out


_BALANCED = _obs([
    ("t1", 0, [1.0, 1.2]),
    ("t2", 0, [0.9, 1.1]),
    ("t3", 1, [2.0, 2.2]),
    ("t4", 1, [1.9, 2.1]),
])


def test_balanced_effect_is_mean_difference():
    # Balanced design: GLS reduces to the difference of condition means at
    # every variance ratio, so beta1 must be exact.
    fit = compare(_BALANCED)[0]
    assert fit.beta1 == pytest.approx(1.0, abs=1e-12)
    assert fit.beta0 == pytest.approx(1.05, abs=1e-12)
    assert fit.converged
    assert fit.sigma_e2 > 0
    assert fit.sigma_b2 >= 0
    assert 0.0 < fit.p_wald < 1.0


def test_constant_data_collapses():
    obs = _obs([
        ("t1", 0, [5.0, 5.0]),
        ("t2", 0, [5.0, 5.0]),
        ("t3", 1, [5.0, 5.0]),
        ("t4", 1, [5.0, 5.0]),
    ])
    fit = compare(obs)[0]
    assert fit.beta1 == 0.0
    assert fit.sigma_b2 == 0.0
    assert fit.sigma_e2 == 0.0
    assert fit.converged
    assert fit.p_wald == 1.0


def _random_dataset(rng, effect=0.0, sd_trial=1.0, sd_stride=1.0):
    data = []
    for cond in (0, 1):
        for j in range(int(rng.integers(2, 6))):
            bump = float(rng.normal(0.0, sd_trial))
            n = int(rng.integers(3, 11))
            values = (
                effect * cond + bump + rng.normal(0.0, sd_stride, n)
            ).tolist()
            data.append((f"c{cond}_t{j}", cond, values))
    return _obs(data)


_COARSE_GRID = [0.0] + np.geomspace(1e-8, 1e6, 57).tolist()


def refined_oracle(obs):
    """Dense-grid oracle with one refinement pass around the coarse best.

    The refinement shrinks the grid spacing enough that the best grid point
    pins beta1 to well under 1e-4 of the continuous optimum.
    """
    coarse = lme_oracle(obs, _COARSE_GRID)
    lam = coarse.sigma_b2 / coarse.sigma_e2 if coarse.sigma_e2 > 0 else 0.0
    if lam == 0.0:
        fine = [0.0] + np.geomspace(1e-10, 1e-7, 60).tolist()
    else:
        step = (1e6 / 1e-8) ** (1.0 / 56.0)
        fine = [0.0] + np.geomspace(lam / step, lam * step, 600).tolist()
    return lme_oracle(obs, fine)


def test_fit_matches_dense_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(10):
        obs = _random_dataset(rng, effect=float(rng.normal(0.0, 2.0)))
        fit = compare(obs)[0]
        oracle = refined_oracle(obs)
        # The continuous search must never fall below the best grid point.
        assert fit.log_reml >= oracle.log_reml - 1e-9
        assert fit.beta1 == pytest.approx(oracle.beta1, abs=1e-4)
        assert fit.se_beta1 == pytest.approx(oracle.se_beta1, rel=1e-3)


def test_oracle_at_zero_is_ols():
    rng = np.random.default_rng(31)
    obs = _random_dataset(rng, effect=1.0)
    oracle = lme_oracle(obs, [0.0])
    y = np.array([o.value for o in obs])
    x = np.column_stack([np.ones(y.size), [float(o.condition) for o in obs]])
    beta, *_ = np.linalg.lstsq(x, y, rcond=None)
    assert oracle.beta0 == pytest.approx(float(beta[0]), abs=1e-9)
    assert oracle.beta1 == pytest.approx(float(beta[1]), abs=1e-9)
    assert oracle.sigma_b2 == 0.0


def test_strong_clustering_found():
    rng = np.random.default_rng(77)
    obs = _random_dataset(rng, effect=0.0, sd_trial=5.0, sd_stride=0.05)
    fit = compare(obs)[0]
    assert fit.sigma_b2 > fit.sigma_e2 * 10.0


def test_criterion_concavity_around_optimum():
    # The profiled criterion evaluated on the grid should peak where the
    # search lands, not at a far-away ratio.
    rng = np.random.default_rng(101)
    obs = _random_dataset(rng, effect=0.5, sd_trial=1.5, sd_stride=0.7)
    fit = compare(obs)[0]
    oracle = refined_oracle(obs)
    if oracle.sigma_e2 > 0 and fit.sigma_e2 > 0:
        lam_fit = fit.sigma_b2 / fit.sigma_e2
        lam_oracle = oracle.sigma_b2 / oracle.sigma_e2
        if lam_oracle > 0 and lam_fit > 0:
            assert abs(math.log(lam_fit) - math.log(lam_oracle)) < 0.25


def test_missing_condition_rejected():
    obs = _obs([("t1", 0, [1.0, 2.0]), ("t2", 0, [1.5, 2.5])])
    with pytest.raises(SingularDesign):
        compare(obs)
    with pytest.raises(SingularDesign):
        compare([])
    # Both conditions present, but two strides leave no residual degree of
    # freedom.
    two = _obs([("t1", 0, [10.0]), ("t2", 1, [11.0])])
    with pytest.raises(SingularDesign, match="need at least 3"):
        compare(two)
    with pytest.raises(SingularDesign, match="need at least 3"):
        compare_trials(np.array([10.0, 11.0]), np.array([0, 1]),
                       np.array([0, 1]), ["t1", "t2"])


def test_trial_under_both_conditions_rejected():
    obs = [
        Observation(1.0, 0, "t1"),
        Observation(2.0, 1, "t1"),
        Observation(1.0, 1, "t2"),
    ]
    with pytest.raises(ValueError):
        compare(obs)


def test_bad_condition_rejected():
    with pytest.raises(ValueError, match="condition must be 0 or 1"):
        compare([Observation(1.0, 2, "t1")])


def test_oracle_grid_validation():
    with pytest.raises(ValueError):
        lme_oracle(_BALANCED, [])
    with pytest.raises(ValueError):
        lme_oracle(_BALANCED, [1.0])  # 0 missing
    with pytest.raises(ValueError):
        lme_oracle(_BALANCED, [0.0, -1.0])


def test_trial_means_grouping():
    means_a, means_b = compare(_BALANCED)[1:]
    assert means_a == pytest.approx([1.1, 1.0])
    assert means_b == pytest.approx([2.1, 2.0])


def test_trial_means_first_appearance_order():
    obs = _obs([
        ("z", 1, [4.0]),
        ("a", 0, [1.0]),
        ("m", 1, [6.0]),
        ("b", 0, [2.0]),
    ])
    means_a, means_b = compare(obs)[1:]
    assert means_a == [1.0, 2.0]
    assert means_b == [4.0, 6.0]


def test_means_past_the_float_range_overflow_quietly():
    # Tier-1 turns a numpy warning into an error.
    means_a, means_b = compare(_obs([
        ("a", 0, [1e308, 1e308]), ("b", 1, [1.0]),
    ]))[1:]
    assert (means_a, means_b) == ([math.inf], [1.0])
    r = tost_welch([1e200, -1e200], [1e200, 3e200], bound=1.0)
    assert math.isinf(r.se_welch) and not r.equivalent


@pytest.mark.parametrize("scale", [1e78, 1e-86])
def test_tost_df_when_the_squared_variances_leave_the_float_range(scale):
    # va**2 overflows at 1e78 and underflows to 0 at 1e-86; Welch's df does
    # not depend on the scale.
    a, b = [0.0, 1.0, 3.0], [0.0, 2.0, 2.5]
    want = tost_welch(a, b, bound=1.0)
    r = tost_welch([x * scale for x in a], [x * scale for x in b],
                   bound=scale)
    assert r.df_welch == pytest.approx(want.df_welch, rel=1e-12)
    assert (r.p_lower, r.p_upper) == pytest.approx(
        (want.p_lower, want.p_upper), rel=1e-9)


def test_tost_fixture():
    r = tost_welch([10.0, 10.2, 10.4], [10.3, 10.5, 10.7], bound=2.0)
    assert r.diff == pytest.approx(-0.3, abs=1e-12)
    assert r.se_welch == pytest.approx(0.16330, abs=1e-5)
    assert r.df_welch == pytest.approx(4.0, abs=1e-9)
    assert r.p_upper < 1e-3
    assert r.p_lower < 1e-3
    assert r.equivalent
    assert not r.degenerate


def test_tost_equal_samples_equivalent():
    a = [1.0, 1.1, 0.9]
    r = tost_welch(a, list(a), bound=1.0)
    assert r.diff == 0.0
    assert r.equivalent
    assert not r.degenerate


def test_tost_large_difference_not_equivalent():
    r = tost_welch([10.0, 10.1, 10.2], [15.0, 15.1, 15.2], bound=2.0)
    assert not r.equivalent
    # The lower test (diff against +bound) cannot reject when diff << -bound
    # is false... the upper test fails instead: diff + bound < 0.
    assert r.p_upper > 0.5


def test_tost_swap_antisymmetry():
    rng = np.random.default_rng(13)
    for _ in range(25):
        a = rng.normal(0.0, 1.0, int(rng.integers(2, 8))).tolist()
        b = rng.normal(0.3, 1.5, int(rng.integers(2, 8))).tolist()
        r_ab = tost_welch(a, b, bound=2.0)
        r_ba = tost_welch(b, a, bound=2.0)
        assert r_ab.diff == pytest.approx(-r_ba.diff, abs=1e-12)
        assert r_ab.se_welch == pytest.approx(r_ba.se_welch, rel=1e-12)
        assert r_ab.df_welch == pytest.approx(r_ba.df_welch, rel=1e-12)
        assert r_ab.p_upper == pytest.approx(r_ba.p_lower, rel=1e-9)
        assert r_ab.p_lower == pytest.approx(r_ba.p_upper, rel=1e-9)
        assert r_ab.equivalent == r_ba.equivalent


def test_tost_location_and_scale_equivariance():
    rng = np.random.default_rng(29)
    a = rng.normal(5.0, 1.0, 4).tolist()
    b = rng.normal(5.2, 1.0, 5).tolist()
    base = tost_welch(a, b, bound=2.0)
    shifted = tost_welch([v + 100.0 for v in a], [v + 100.0 for v in b], bound=2.0)
    assert shifted.p_lower == pytest.approx(base.p_lower, rel=1e-9)
    assert shifted.p_upper == pytest.approx(base.p_upper, rel=1e-9)
    k = 3.5
    scaled = tost_welch([v * k for v in a], [v * k for v in b], bound=2.0 * k)
    assert scaled.p_lower == pytest.approx(base.p_lower, rel=1e-9)
    assert scaled.p_upper == pytest.approx(base.p_upper, rel=1e-9)
    assert scaled.df_welch == pytest.approx(base.df_welch, rel=1e-9)


def test_tost_df_bounds():
    rng = np.random.default_rng(37)
    for _ in range(50):
        na = int(rng.integers(2, 9))
        nb = int(rng.integers(2, 9))
        a = rng.normal(0.0, rng.uniform(0.5, 2.0), na).tolist()
        b = rng.normal(0.0, rng.uniform(0.5, 2.0), nb).tolist()
        r = tost_welch(a, b, bound=1.0)
        assert min(na, nb) - 1 <= r.df_welch + 1e-9
        assert r.df_welch <= na + nb - 2 + 1e-9


def test_tost_degenerate_zero_variance():
    r = tost_welch([5.0, 5.0], [5.0, 5.0], bound=1.0)
    assert r.degenerate
    assert r.se_welch == 0.0
    assert r.equivalent  # identical constants are equivalent in the limit
    far = tost_welch([5.0, 5.0], [9.0, 9.0], bound=1.0)
    assert far.degenerate
    assert not far.equivalent


@pytest.mark.parametrize("a, want", [
    # diff = 4 lies above the bound: both numerators are positive.
    (9.0, {"t_lower": math.inf, "p_lower": 1.0,
           "t_upper": math.inf, "p_upper": 0.0}),
    # diff = +bound: the lower test sits on its boundary.
    (7.0, {"t_lower": 0.0, "p_lower": 0.5,
           "t_upper": math.inf, "p_upper": 0.0}),
    # diff = -bound: the upper test sits on its boundary.
    (3.0, {"t_lower": -math.inf, "p_lower": 0.0,
           "t_upper": 0.0, "p_upper": 0.5}),
], ids=["above", "at_plus_bound", "at_minus_bound"])
def test_tost_degenerate_at_and_above_the_bound(a, want):
    r = tost_welch([a, a, a], [5.0, 5.0], bound=2.0)
    assert r.degenerate
    assert not r.equivalent
    assert {key: getattr(r, key) for key in want} == want
    text = json.dumps(dataclasses.asdict(r))
    for key in ("t_lower", "t_upper"):
        if want[key] == 0:  # written as 0.0, not -0.0
            assert f'"{key}": 0.0,' in text


def test_tost_input_validation():
    with pytest.raises(ValueError):
        tost_welch([1.0], [1.0, 2.0], bound=1.0)
    with pytest.raises(ValueError):
        tost_welch([1.0, 2.0], [1.0, 2.0], bound=0.0)
    with pytest.raises(ValueError):
        tost_welch([1.0, 2.0], [1.0, 2.0], bound=1.0, alpha=1.0)


def test_wald_p_values():
    assert wald_p(0.0, 1.0) == 1.0
    assert wald_p(1.24, 0.4) == pytest.approx(0.0019352, abs=1e-6)
    assert wald_p(1.959963985, 1.0) == pytest.approx(0.05, abs=1e-6)
    assert wald_p(-1.24, 0.4) == wald_p(1.24, 0.4)
    with pytest.raises(ValueError):
        wald_p(1.0, 0.0)


def _t_cdf_oracle(df: float, t: float) -> float:
    # Student-t CDF through the regularized incomplete beta, evaluated by
    # mpmath: an implementation independent of scipy's stdtr.
    x = df / (df + t * t)
    half = 0.5 * float(mpmath.betainc(df / 2.0, 0.5, 0, x, regularized=True))
    return half if t <= 0 else 1.0 - half


def test_t_tail_against_incomplete_beta():
    for df in [1.0, 2.0, 4.0, 7.3, 30.0]:
        for t in [-5.0, -1.96, -0.5, 0.0, 0.5, 1.96, 5.0]:
            assert float(stdtr(df, t)) == pytest.approx(
                _t_cdf_oracle(df, t), abs=1e-12
            )
