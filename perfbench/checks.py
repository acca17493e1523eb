"""Reference computations the benchmark checks gigmix's outputs against.

Each function recomputes a quantity from its definition with code that shares
nothing with the program: scipy densities, explicit threshold enumeration,
scipy's paired t-test. A fault in the program therefore cannot cancel out of a
comparison, and no check compares against a stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special, stats

FPR_MAX = 0.05
# A chance ranking scores fpr_max / 2 on the normalized restricted AUC.
CHANCE_AUC = FPR_MAX / 2
# Agreement demanded between the program and a recomputation of the same
# float64 quantity along another summation order.
AUC_TOL = 1e-12
RESP_TOL = 1e-10
SIMPLEX_TOL = 1e-12
# Slack of acceptance criterion 5: a VB step may lose at most this share of
# (1 + |NFE|).
NFE_SLACK = 1e-6
# How far a model's mean AUC may lie above the oracle's mean AUC on the same
# maps before it counts as a fault (sampling noise of finite maps).
ORACLE_MARGIN = 0.01


def brute_force_restricted_auc(scores, active, fpr_max: float = FPR_MAX) -> float:
    """Normalized ROC area over FPR in [0, fpr_max], from every distinct threshold.

    For each distinct score t, taken in descending order, the true- and
    false-positive rates are the shares of active and inactive scores >= t,
    counted by binary search in each class's sorted scores. The curve through
    those points is integrated with trapezoids and cut at fpr_max by linear
    interpolation on the segment that crosses it.
    """
    s = np.asarray(scores, dtype=float).ravel()
    a = np.asarray(active, dtype=bool).ravel()
    pos = np.sort(s[a])
    neg = np.sort(s[~a])
    if pos.size == 0 or neg.size == 0:
        raise ValueError("restricted AUC needs both classes")
    thresholds = np.unique(s)[::-1]
    tpr = (pos.size - np.searchsorted(pos, thresholds, side="left")) / pos.size
    fpr = (neg.size - np.searchsorted(neg, thresholds, side="left")) / neg.size
    tpr = np.concatenate([[0.0], tpr])
    fpr = np.concatenate([[0.0], fpr])
    inside = fpr <= fpr_max
    fx, fy = fpr[inside], tpr[inside]
    if fx[-1] < fpr_max:
        j = int(np.searchsorted(fpr, fpr_max, side="right"))
        f0, f1, t0, t1 = fpr[j - 1], fpr[j], tpr[j - 1], tpr[j]
        fx = np.append(fx, fpr_max)
        fy = np.append(fy, t0 + (t1 - t0) * (fpr_max - f0) / (f1 - f0))
    return float(np.sum(np.diff(fx) * (fy[1:] + fy[:-1])) / 2.0) / fpr_max


def _normalize_rows(log_rho: np.ndarray) -> np.ndarray:
    """Row-wise softmax; a row with zero density everywhere goes to the Gaussian."""
    m = log_rho.max(axis=1, keepdims=True)
    dead = ~np.isfinite(m[:, 0])
    m[dead] = 0.0
    rho = np.exp(log_rho - m)
    rho[dead] = (1.0, 0.0, 0.0)
    return rho / rho.sum(axis=1, keepdims=True)


def ml_responsibilities(x, pi, mu, tau, positive, negative) -> np.ndarray:
    """Posterior component probabilities under a point-estimate mixture.

    ``positive`` and ``negative`` are (kind, shape, rate) with kind "gamma"
    (rate) or "invgamma" (scale), as the program reports them; each side's
    density is evaluated with scipy.stats at the mirrored value |x|.
    """
    x = np.asarray(x, dtype=float).ravel()
    lp = np.full((x.size, 3), -np.inf)
    lp[:, 0] = stats.norm.logpdf(x, loc=mu, scale=1.0 / math.sqrt(tau))
    for col, (kind, shape, rate), side in ((1, positive, x > 0), (2, negative, x < 0)):
        z = np.abs(x[side])
        if kind == "gamma":
            lp[side, col] = stats.gamma.logpdf(z, a=shape, scale=1.0 / rate)
        else:
            lp[side, col] = stats.invgamma.logpdf(z, a=shape, scale=rate)
    with np.errstate(divide="ignore"):
        lp += np.log(np.asarray(pi, dtype=float))[None, :]
    return _normalize_rows(lp)


def vb_responsibilities(x, kinds, e) -> np.ndarray:
    """Responsibilities from reported VB expectations, in closed form.

    ``e`` maps the reported expectation names (log_pi, mu, mu2, tau, log_tau,
    r, log_r, s, log_gamma_s) to values. The expected log-densities are

        Gaussian:   E log pi1 + E log tau / 2 - log(2 pi) / 2
                    - E tau (x^2 - 2 x E mu + E mu^2) / 2
        Gamma:      E log pi + s E log r - E log Gamma(s) + (s - 1) log z - E r z
        inv-Gamma:  E log pi + s E log r - E log Gamma(s) - (s + 1) log z - E r / z

    with z = |x| on the component's side and s the shape's posterior mean.
    """
    x = np.asarray(x, dtype=float).ravel()
    log_pi = np.asarray(e["log_pi"], dtype=float)
    lp = np.full((x.size, 3), -np.inf)
    lp[:, 0] = (
        log_pi[0]
        + 0.5 * e["log_tau"]
        - 0.5 * math.log(2.0 * math.pi)
        - 0.5 * e["tau"] * (x * x - 2.0 * x * e["mu"] + e["mu2"])
    )
    for k, (kind, side) in enumerate(zip(kinds, (x > 0, x < 0))):
        z = np.abs(x[side])
        s, r = float(e["s"][k]), float(e["r"][k])
        const = log_pi[k + 1] + s * float(e["log_r"][k]) - float(e["log_gamma_s"][k])
        if kind == "gamma":
            lp[side, k + 1] = const + (s - 1.0) * np.log(z) - r * z
        else:
            lp[side, k + 1] = const - (s + 1.0) * np.log(z) - r / z
    return _normalize_rows(lp)


def simplex_and_support(x, gamma) -> tuple:
    """(ok, detail): rows lie on the simplex; each activation is zero off its side."""
    x = np.asarray(x, dtype=float).ravel()
    g = np.asarray(gamma, dtype=float)
    if g.shape != (x.size, 3):
        return False, f"shape {g.shape} for {x.size} samples"
    row_err = float(np.max(np.abs(g.sum(axis=1) - 1.0)))
    in_range = bool(np.all((g >= 0.0) & (g <= 1.0)))
    off_support = int(np.count_nonzero(g[x <= 0, 1])) + int(np.count_nonzero(g[x >= 0, 2]))
    ok = in_range and row_err <= SIMPLEX_TOL and off_support == 0
    return ok, f"max |row sum - 1| {row_err:.1e}, off-support nonzeros {off_support}"


def nfe_monotone(trace) -> tuple:
    """(ok, worst margin): the NFE never falls by more than criterion 5's slack."""
    t = np.asarray(trace, dtype=float)
    if t.size < 2:
        return True, math.inf
    margin = np.diff(t) + NFE_SLACK * (1.0 + np.abs(t[:-1]))
    return bool(np.all(margin >= 0.0)), float(margin.min())


def oracle_scores(x, pi, snr) -> np.ndarray:
    """P(active | x) under the true generating mixture: unit-variance Gaussians
    at 0, +snr and -snr with proportions ``pi``."""
    x = np.asarray(x, dtype=float).ravel()
    with np.errstate(divide="ignore"):
        log_pi = np.log(np.asarray(pi, dtype=float))
    lp = np.stack(
        [
            log_pi[0] + stats.norm.logpdf(x, 0.0, 1.0),
            log_pi[1] + stats.norm.logpdf(x, snr, 1.0),
            log_pi[2] + stats.norm.logpdf(x, -snr, 1.0),
        ],
        axis=1,
    )
    return np.exp(special.logsumexp(lp[:, 1:], axis=1) - special.logsumexp(lp, axis=1))


def auc_within_bounds(model_auc_mean: float, oracle_auc_mean: float) -> bool:
    """Above chance, and not above the oracle by more than sampling noise."""
    return CHANCE_AUC < model_auc_mean <= oracle_auc_mean + ORACLE_MARGIN


def win_counts(auc_runs: dict, alpha: float = 0.01) -> dict:
    """(model_a, model_b) -> (scenarios won, scenarios) by scipy's paired t-test.

    ``auc_runs`` maps scenario -> model -> {repeat index: AUC}; vectors are
    paired by repeat index. A win is a higher mean AUC with p < alpha. With
    constant differences the t statistic is infinite (p = 0) unless they are
    all zero (no evidence, p = 1).
    """
    scenarios = sorted(auc_runs)
    models = sorted(auc_runs[scenarios[0]])
    out = {}
    for ma in models:
        for mb in models:
            if ma == mb:
                continue
            won = 0
            for sc in scenarios:
                reps = sorted(set(auc_runs[sc][ma]) & set(auc_runs[sc][mb]))
                va = np.array([auc_runs[sc][ma][i] for i in reps])
                vb = np.array([auc_runs[sc][mb][i] for i in reps])
                d = va - vb
                if np.all(d == d[0]):
                    p = 1.0 if d[0] == 0.0 else 0.0
                else:
                    p = float(stats.ttest_rel(va, vb).pvalue)
                won += bool(d.mean() > 0.0 and p < alpha)
            out[(ma, mb)] = (won, len(scenarios))
    return out
