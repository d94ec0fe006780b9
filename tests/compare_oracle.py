"""Reference `compare` command for the columnar compare tests.

The CLI reads strides CSVs a column at a time and groups strides by trial
with array operations. This module keeps the straightforward form of the
same command: a csv.DictReader dict per row, one Observation tuple per
kept stride and feature, and dict-based grouping for the mixed model and
the trial means. The REML search is a copy of the library's, so the property
pins the whole path from file to verdict. The CLI must exit with the same
code, print the same stderr and write byte-identical JSON.
"""

import csv
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from exogait.cli import (
    SCHEMA_VERSION,
    _ANGLE_FEATURES,
    _DURATION_FEATURES,
    _emit_json,
    _UsageError,
)
from exogait.errors import (
    BadHeaderRow,
    DidNotConverge,
    NonNumericCell,
    SingularDesign,
)
from exogait.stats import LmeFit, tost_welch, wald_p
from stats_oracle import Observation

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_LOG_LAM_LO = -12.0
_LOG_LAM_HI = 12.0


@dataclass
class _TrialSummary:
    condition: int
    n: int = 0
    s: float = 0.0
    ss: float = 0.0


def _summarize(observations):
    by_trial = {}
    for obs in observations:
        t = by_trial.get(obs.trial_id)
        if t is None:
            t = by_trial[obs.trial_id] = _TrialSummary(condition=obs.condition)
        elif t.condition != obs.condition:
            raise ValueError(
                f"trial {obs.trial_id!r} appears under both conditions"
            )
        t.n += 1
        t.s += obs.value
        t.ss += obs.value * obs.value
    trials = list(by_trial.values())
    have = {t.condition for t in trials}
    if have != {0, 1}:
        missing = ({0, 1} - have) or {0, 1}
        raise SingularDesign(
            f"condition(s) {sorted(missing)} have no trials; the fixed-effect "
            "design is rank deficient"
        )
    n = sum(t.n for t in trials)
    if n < 3:
        raise SingularDesign(
            f"{n} strides cannot estimate the residual variance; need at least 3"
        )
    return trials


def _profiled_criterion(trials, lam):
    n = sum(t.n for t in trials)
    a11 = a12 = b0 = b1 = 0.0
    y_h_y = 0.0
    logdet_h = 0.0
    for t in trials:
        w = 1.0 / (1.0 + t.n * lam)
        a11 += t.n * w
        b0 += t.s * w
        if t.condition == 1:
            a12 += t.n * w
            b1 += t.s * w
        y_h_y += t.ss - lam * w * t.s * t.s
        logdet_h += math.log1p(t.n * lam)
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


def _fit_from(trials, lam, converged):
    n = sum(t.n for t in trials)
    crit, beta0, beta1, r_h_r, inv11 = _profiled_criterion(trials, lam)
    sigma_e2 = r_h_r / (n - 2)
    sigma_b2 = lam * sigma_e2
    se_beta1 = math.sqrt(sigma_e2 * inv11)
    if se_beta1 > 0:
        p = wald_p(beta1, se_beta1)
    else:
        p = 1.0 if beta1 == 0 else 0.0
    return LmeFit(
        beta0=beta0,
        beta1=beta1,
        sigma_b2=sigma_b2,
        sigma_e2=sigma_e2,
        se_beta1=se_beta1,
        p_wald=p,
        converged=converged,
        log_reml=crit,
    )


def oracle_fit_lme(observations):
    """The fit stats.compare_trials gives on the same strides, with the
    same errors."""
    if not observations:
        raise SingularDesign("no observations")
    trials = _summarize(observations)

    def crit(log_lam):
        return _profiled_criterion(trials, math.exp(log_lam))[0]

    lo, hi = _LOG_LAM_LO, _LOG_LAM_HI
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = crit(c), crit(d)
    if math.isinf(fc) or math.isinf(fd):
        return _fit_from(trials, 0.0, converged=True)
    converged = False
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
            converged = True
            break
    if not converged and hi - lo >= 1e-8:
        raise DidNotConverge(
            f"REML search interval still {hi - lo:g} wide after 200 iterations"
        )
    lam = math.exp(0.5 * (lo + hi))
    best_crit = _profiled_criterion(trials, lam)[0]
    crit0 = _profiled_criterion(trials, 0.0)[0]
    if crit0 >= best_crit:
        lam = 0.0
    return _fit_from(trials, lam, converged=True)


def oracle_trial_means(observations):
    """The trial means stats.compare_trials gives on the same strides."""
    order = []
    sums = {}
    cond = {}
    for obs in observations:
        if obs.trial_id not in sums:
            order.append(obs.trial_id)
            sums[obs.trial_id] = []
            cond[obs.trial_id] = obs.condition
        elif cond[obs.trial_id] != obs.condition:
            raise ValueError(
                f"trial {obs.trial_id!r} appears under both conditions"
            )
        sums[obs.trial_id].append(obs.value)
    with np.errstate(over="ignore", invalid="ignore"):
        means_a = [float(np.mean(sums[t])) for t in order if cond[t] == 0]
        means_b = [float(np.mean(sums[t])) for t in order if cond[t] == 1]
    return means_a, means_b


def _read_strides_csv(paths):
    rows = []
    for path in paths:
        # utf-8-sig: a leading byte-order mark is not part of the header.
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or \
                    "trial_id" not in reader.fieldnames or \
                    "condition" not in reader.fieldnames:
                raise BadHeaderRow(
                    f"{path}: strides CSV needs trial_id and condition columns"
                )
            rows.extend(reader)
    return rows


def oracle_cmd_compare(values):
    """Drop-in for cli._cmd_compare: same options, output and errors."""
    if not 0 < values["alpha"] < 1:
        raise _UsageError(f"--alpha must be in (0, 1), got {values['alpha']}")
    for key in ("angle_bound", "duration_bound", "bound"):
        bound = values[key]
        if bound is not None and not 0 < bound < math.inf:
            raise _UsageError(
                f"--{key.replace('_', '-')} must be positive and finite, "
                f"got {bound}"
            )
    baseline, treatment = values["baseline"], values["treatment"]
    if baseline == treatment:
        raise _UsageError("condition labels must be distinct")
    bounds = []
    for feature in values["features"]:
        if values["bound"] is not None:
            bounds.append(values["bound"])
        elif feature in _ANGLE_FEATURES:
            bounds.append(values["angle_bound"])
        elif feature in _DURATION_FEATURES:
            bounds.append(values["duration_bound"])
        else:
            raise _UsageError(
                f"feature {feature!r} has no default bound; pass --bound"
            )
    rows = _read_strides_csv(values["inputs"])
    cond_code = {baseline: 0, treatment: 1}
    report = {
        "schema_version": SCHEMA_VERSION,
        "baseline": baseline,
        "treatment": treatment,
        "alpha": values["alpha"],
        "features": [],
    }
    for feature, bound in zip(values["features"], bounds):
        observations = []
        for row in rows:
            condition = row.get("condition")
            if condition not in cond_code:
                continue
            cell = (row.get(feature) or "").strip()
            if cell == "":
                continue
            try:
                value = float(cell)
            except ValueError:
                raise NonNumericCell(
                    f"feature {feature!r}: cannot parse {cell!r}"
                ) from None
            observations.append(Observation(
                value=value,
                condition=cond_code[condition],
                trial_id=str(row["trial_id"]),
            ))
        missing = [label for code, label in enumerate((baseline, treatment))
                   if all(o.condition != code for o in observations)]
        if len(missing) == 1:
            raise SingularDesign(f"condition {missing[0]!r} has no strides")
        if missing:
            raise SingularDesign(
                f"conditions {missing[0]!r} and {missing[1]!r} have no strides"
            )
        fit = oracle_fit_lme(observations)
        means_a, means_b = oracle_trial_means(observations)
        tost = tost_welch(means_a, means_b, bound, alpha=values["alpha"])
        n0 = sum(1 for o in observations if o.condition == 0)
        report["features"].append({
            "feature": feature,
            "bound": bound,
            "n_strides": {"baseline": n0,
                          "treatment": len(observations) - n0},
            "n_trials": {"baseline": len(means_a),
                         "treatment": len(means_b)},
            "lme": dataclasses.asdict(fit),
            "tost": dataclasses.asdict(tost),
            "equivalent": tost.equivalent,
        })
    _emit_json(report, values["out"])
    return 0
