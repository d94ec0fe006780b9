"""Dense-matrix REML oracle for the mixed-model tests.

compare_trials profiles the REML criterion in closed form over per-trial
sums. This module evaluates the same criterion, with the same constants
dropped, from the explicit n-by-n covariance on a grid of variance ratios,
so the tests can hold the closed-form path against an independent route.

The tests draw strides as Observation tuples; compare() hands them to
compare_trials as the columns it takes.
"""

import math
from typing import NamedTuple

import numpy as np

from exogait.errors import SingularDesign
from exogait.stats import LmeFit, compare_trials, wald_p


class Observation(NamedTuple):
    """One stride's value for one outcome variable."""

    value: float
    condition: int  # 0 = NoExo, 1 = ExoOff
    trial_id: str


def compare(observations: list[Observation]):
    """compare_trials on the strides: (fit, means_a, means_b).

    Trials are coded in the order of their first stride.
    """
    index: dict[str, int] = {}
    codes = [index.setdefault(o.trial_id, len(index)) for o in observations]
    return compare_trials(
        np.array([o.value for o in observations], dtype=float),
        np.array([o.condition for o in observations], dtype=np.intp),
        np.array(codes, dtype=np.intp),
        list(index),
    )


def lme_oracle(observations: list[Observation], lambda_grid) -> LmeFit:
    """Exhaustive REML grid evaluation with dense linear algebra.

    Every quantity is recomputed from the explicit n-by-n covariance
    (log-determinants via slogdet, GLS via dense solves), sharing no code
    with the closed-form path. Returns the fit at the best grid point.
    """
    grid = [float(g) for g in lambda_grid]
    if not grid or any(not math.isfinite(g) or g < 0 for g in grid):
        raise ValueError("lambda_grid must be finite and nonnegative")
    if 0.0 not in grid:
        raise ValueError("lambda_grid must include 0")
    if not observations:
        raise SingularDesign("no observations")
    trial_ids: list[str] = []
    cond_of: dict[str, int] = {}
    for obs in observations:
        if obs.trial_id not in cond_of:
            trial_ids.append(obs.trial_id)
            cond_of[obs.trial_id] = obs.condition
        elif cond_of[obs.trial_id] != obs.condition:
            raise ValueError(
                f"trial {obs.trial_id!r} appears under both conditions"
            )
    if {c for c in cond_of.values()} != {0, 1}:
        raise SingularDesign("a condition has no trials")

    y = np.array([o.value for o in observations])
    x = np.column_stack(
        [np.ones(len(observations)),
         np.array([float(o.condition) for o in observations])]
    )
    z = np.zeros((len(observations), len(trial_ids)))
    index = {t: j for j, t in enumerate(trial_ids)}
    for i, obs in enumerate(observations):
        z[i, index[obs.trial_id]] = 1.0
    n = y.size

    best = None
    for lam in grid:
        h = np.eye(n) + lam * (z @ z.T)
        sign, logdet_h = np.linalg.slogdet(h)
        hi_x = np.linalg.solve(h, x)
        hi_y = np.linalg.solve(h, y)
        xtx = x.T @ hi_x
        beta = np.linalg.solve(xtx, x.T @ hi_y)
        r = y - x @ beta
        r_h_r = float(r @ np.linalg.solve(h, r))
        sign_a, logdet_a = np.linalg.slogdet(xtx)
        if sign <= 0 or sign_a <= 0:
            raise SingularDesign("covariance not positive definite on grid")
        if r_h_r <= 1e-14 * max(float(y @ y), 1.0):
            crit = math.inf
        else:
            crit = -0.5 * (logdet_h + logdet_a + (n - 2) * math.log(r_h_r))
        if best is None or crit > best[0]:
            inv11 = float(np.linalg.inv(xtx)[1, 1])
            sigma_e2 = max(r_h_r, 0.0) / (n - 2)
            best = (crit, lam, float(beta[0]), float(beta[1]), sigma_e2, inv11)

    crit, lam, beta0, beta1, sigma_e2, inv11 = best
    se = math.sqrt(sigma_e2 * inv11)
    p = wald_p(beta1, se) if se > 0 else (1.0 if beta1 == 0 else 0.0)
    return LmeFit(
        beta0=beta0,
        beta1=beta1,
        sigma_b2=lam * sigma_e2,
        sigma_e2=sigma_e2,
        se_beta1=se,
        p_wald=p,
        converged=True,
        log_reml=crit,
    )
