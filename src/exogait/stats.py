"""Stride-level mixed model, trial means, and TOST equivalence testing.

The mixed model is y_ij = beta0 + beta1 * cond_j + b_j + eps_ij with one
random intercept b_j per trial, fitted by REML. For a fixed variance ratio
lam = sigma_b^2 / sigma_e^2 the per-trial covariance is compound symmetric,
so everything reduces to per-trial sums via the Sherman-Morrison identity
(I + lam*J)^-1 = I - lam/(1 + n*lam) * J, and REML becomes a 1-D search
over log lam. The tests re-derive the same criterion from dense matrices
(explicit H, log-determinants, linear solves) to check the closed-form
path against an independent route.

The REML criterion here drops additive constants that do not depend on
lam; the tests' dense oracle drops the identical constants, so criterion
values are directly comparable between the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import DidNotConverge, SingularDesign
from .preprocess import scipy_extension

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_LOG_LAM_LO = -12.0
_LOG_LAM_HI = 12.0


@dataclass
class LmeFit:
    beta0: float
    beta1: float
    sigma_b2: float
    sigma_e2: float
    se_beta1: float
    p_wald: float
    converged: bool  # always True: a search that does not converge raises
    log_reml: float


@dataclass
class TostResult:
    diff: float
    se_welch: float
    df_welch: float
    t_lower: float
    t_upper: float
    p_lower: float
    p_upper: float
    equivalent: bool
    bound: float
    alpha: float
    degenerate: bool = False


class _Trials(NamedTuple):
    """Per-trial sums, trials in the order of their first stride."""

    condition: list[int]
    n: list[int]
    s: list[float]  # sum of values
    ss: list[float]  # sum of squares
    values: np.ndarray  # every stride's value, trial by trial


def _group(values, conditions, trial_codes, trial_names) -> _Trials:
    """Group strides by trial: the one grouping behind the fit and the means.

    Stride i has value values[i], condition conditions[i] and trial id
    trial_names[trial_codes[i]]. np.bincount adds the weights one stride at
    a time in stride order, so n, s and ss hold the bits of a running sum
    over the strides; ``values`` keeps stride order within each trial.
    """
    _, first, index = np.unique(
        trial_codes, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    trial = rank[index]  # each stride's trial, numbered by first stride
    condition = conditions[first[order]]
    mixed = conditions != condition[trial]
    if mixed.any():
        name = trial_names[trial_codes[int(np.argmax(mixed))]]
        raise ValueError(f"trial {name!r} appears under both conditions")
    # Python floats overflow to inf silently; keep numpy as quiet.
    with np.errstate(over="ignore", invalid="ignore"):
        squares = values * values
    k = order.size
    return _Trials(
        condition=condition.tolist(),
        n=np.bincount(trial, minlength=k).tolist(),
        s=np.bincount(trial, weights=values, minlength=k).tolist(),
        ss=np.bincount(trial, weights=squares, minlength=k).tolist(),
        values=values[np.argsort(trial, kind="stable")],
    )


def _profiled_criterion(trials: _Trials, lam: float):
    """REML criterion and GLS quantities at a fixed variance ratio.

    Returns (criterion, beta0, beta1, r_h_r, inv11) where inv11 is the
    (1,1) element of (X' H^-1 X)^-1, the unscaled variance of beta1.
    """
    n = sum(trials.n)
    a11 = a12 = b0 = b1 = 0.0
    y_h_y = 0.0
    logdet_h = 0.0
    for condition, n_t, s_t, ss_t in zip(
        trials.condition, trials.n, trials.s, trials.ss
    ):
        w = 1.0 / (1.0 + n_t * lam)
        a11 += n_t * w
        b0 += s_t * w
        if condition == 1:
            a12 += n_t * w
            b1 += s_t * w
        y_h_y += ss_t - lam * w * s_t * s_t
        logdet_h += math.log1p(n_t * lam)
    a22 = a12
    det = a11 * a22 - a12 * a12
    if det <= 0:
        raise SingularDesign("GLS normal equations are singular")
    beta1 = (a11 * b1 - a12 * b0) / det
    beta0 = (b0 - a12 * beta1) / a11
    r_h_r = y_h_y - (beta0 * b0 + beta1 * b1)
    r_h_r = max(r_h_r, 0.0)
    scale = max(y_h_y, 1.0)
    if r_h_r <= 1e-14 * scale:
        return math.inf, beta0, beta1, r_h_r, a11 / det
    crit = -0.5 * (logdet_h + math.log(det) + (n - 2) * math.log(r_h_r))
    return crit, beta0, beta1, r_h_r, a11 / det


def _fit_from(trials: _Trials, lam: float) -> LmeFit:
    n = sum(trials.n)
    crit, beta0, beta1, r_h_r, inv11 = _profiled_criterion(trials, lam)
    sigma_e2 = r_h_r / (n - 2)
    sigma_b2 = lam * sigma_e2
    se_beta1 = math.sqrt(sigma_e2 * inv11)
    if se_beta1 > 0:
        p = wald_p(beta1, se_beta1)
    else:
        # Degenerate data (zero residual variance): the Wald limit.
        p = 1.0 if beta1 == 0 else 0.0
    return LmeFit(
        beta0=beta0,
        beta1=beta1,
        sigma_b2=sigma_b2,
        sigma_e2=sigma_e2,
        se_beta1=se_beta1,
        p_wald=p,
        converged=True,
        log_reml=crit,
    )


def _fit(trials: _Trials) -> LmeFit:
    have = set(trials.condition)
    if have != {0, 1}:
        missing = ({0, 1} - have) or {0, 1}
        raise SingularDesign(
            f"condition(s) {sorted(missing)} have no trials; the fixed-effect "
            "design is rank deficient"
        )
    n = sum(trials.n)
    if n < 3:
        raise SingularDesign(
            f"{n} strides cannot estimate the residual variance; need at least 3"
        )

    def crit(log_lam: float) -> float:
        return _profiled_criterion(trials, math.exp(log_lam))[0]

    lo, hi = _LOG_LAM_LO, _LOG_LAM_HI
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = crit(c), crit(d)
    if math.isinf(fc) or math.isinf(fd):
        # Perfect fit: residuals vanish for every lam; report the boundary.
        return _fit_from(trials, 0.0)
    for _ in range(200):
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = crit(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = crit(d)
        if abs(fc - fd) <= 1e-10 * (abs(fc) + abs(fd) + 1.0) and hi - lo < 1e-8:
            break
    if hi - lo >= 1e-8:
        raise DidNotConverge(
            f"REML search interval still {hi - lo:g} wide after 200 iterations"
        )
    lam = math.exp(0.5 * (lo + hi))
    best_crit = _profiled_criterion(trials, lam)[0]
    crit0 = _profiled_criterion(trials, 0.0)[0]
    if crit0 >= best_crit:
        lam = 0.0
    return _fit_from(trials, lam)


def compare_trials(
    values: np.ndarray,
    conditions: np.ndarray,
    trial_codes: np.ndarray,
    trial_names: list[str],
) -> tuple[LmeFit, list[float], list[float]]:
    """REML fit of the random-intercept model, and the per-trial means.

    Stride i has value values[i], condition conditions[i] (0 or 1) and
    trial id trial_names[trial_codes[i]]. Returns (fit, means_a, means_b):
    the fit, then the stride means of each trial of condition 0 and of
    condition 1, trials in the order of their first stride.

    The fit profiles the variance ratio: a golden-section search maximizes
    the profiled criterion over natural log lam in [-12, 12]; the lam = 0
    boundary (no between-trial variance) is compared explicitly so the
    boundary optimum is exact rather than approached asymptotically.
    """
    if len(values) == 0:
        raise SingularDesign("no observations")
    bad = (conditions != 0) & (conditions != 1)
    if bad.any():
        raise ValueError(f"condition must be 0 or 1, got {conditions[bad][0]}")
    trials = _group(values, conditions, trial_codes, trial_names)
    ends = list(accumulate(trials.n))
    with np.errstate(over="ignore", invalid="ignore"):  # as in _group
        means = [
            float(np.mean(trials.values[end - n_t : end]))
            for n_t, end in zip(trials.n, ends)
        ]
    means_a = [m for m, c in zip(means, trials.condition) if c == 0]
    means_b = [m for m, c in zip(means, trials.condition) if c == 1]
    return _fit(trials), means_a, means_b


def _degenerate_p(t_num: float) -> tuple[float, float]:
    """(t, p) limits of a one-sided test as the SE shrinks to zero."""
    if t_num > 0:
        return math.inf, 0.0
    if t_num < 0:
        return -math.inf, 1.0
    return 0.0, 0.5


def tost_welch(
    means_a: list[float],
    means_b: list[float],
    bound: float,
    alpha: float = 0.05,
) -> TostResult:
    """Two one-sided tests for equivalence with a Welch standard error.

    Tests H0: |mean_a - mean_b| >= bound against equivalence. t_upper tests
    the difference against -bound (upper tail), t_lower against +bound
    (lower tail); equivalence requires both p-values below alpha.

    Both sample variances being zero makes the SE degenerate; the result is
    then flagged with p-values taken at their limits rather than raised as
    an error, since equal constant samples are a legitimate (if extreme)
    observation.
    """
    a = np.asarray(means_a, dtype=float)
    b = np.asarray(means_b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise ValueError("each group needs >= 2 trial means")
    if not bound > 0:
        raise ValueError(f"bound must be positive, got {bound}")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    # Means past the float range read as inf or nan without a warning, as
    # Python floats would give them.
    with np.errstate(over="ignore", invalid="ignore"):
        diff = float(a.mean() - b.mean())
        va = float(a.var(ddof=1)) / a.size
        vb = float(b.var(ddof=1)) / b.size
    se = math.sqrt(va + vb)
    if se == 0.0:
        df = float(a.size + b.size - 2)
        t_upper, p_upper = _degenerate_p(diff + bound)
        t_lower, p = _degenerate_p(diff - bound)
        p_lower = 1.0 - p  # lower tail
    else:
        try:
            df = (va + vb) ** 2 / (va**2 / (a.size - 1) + vb**2 / (b.size - 1))
        except (OverflowError, ZeroDivisionError):
            # A square left the float range. df does not depend on the
            # scale of va and vb, so take them relative to the larger.
            ra, rb = va / max(va, vb), vb / max(va, vb)
            df = (ra + rb) ** 2 / (ra**2 / (a.size - 1) + rb**2 / (b.size - 1))
        t_upper = (diff + bound) / se
        t_lower = (diff - bound) / se
        stdtr = scipy_extension("special", "_ufuncs").stdtr
        p_upper = float(stdtr(df, -t_upper))  # upper tail via symmetry
        p_lower = float(stdtr(df, t_lower))
    return TostResult(
        diff=diff,
        se_welch=se,
        df_welch=df,
        t_lower=t_lower,
        t_upper=t_upper,
        p_lower=p_lower,
        p_upper=p_upper,
        equivalent=p_lower < alpha and p_upper < alpha,
        bound=bound,
        alpha=alpha,
        degenerate=se == 0.0,
    )


def wald_p(beta1: float, se: float) -> float:
    """Two-sided normal-reference p-value for beta1 / se."""
    if not se > 0:
        raise ValueError(f"se must be positive, got {se}")
    z = abs(beta1 / se)
    return math.erfc(z / math.sqrt(2.0))
