"""Evaluation machinery: preprocessing, thresholding, restricted AUC, tests.

Activation labels use the encoding 0 = null, +1 = positive, -1 = negative
throughout this module. The headline ROC score for a fit is the combined
activation responsibility (gamma2 + gamma3) against "any activation" truth.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .estep import finite_data


@dataclass
class ComparisonTable:
    """Pairwise significant-win flags per scenario and aggregate percentages."""

    scenarios: list
    models: list
    wins: dict
    win_pct: dict


def standardize(data) -> np.ndarray:
    """Scale the nonzero values to zero mean and unit population variance;
    each exact zero, which a fit masks, stays 0. One value per input."""
    x = finite_data(data)
    values = x[x != 0.0]
    if values.size < 2:
        raise ValueError("need at least 2 nonzero values to standardize")
    mean = values.mean()
    std = values.std()
    if std == 0.0:
        raise ValueError("cannot standardize constant input")
    return np.where(x != 0.0, (x - mean) / std, 0.0)


def activation_map(gamma: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Per-sample activation labels from responsibilities.

    Positive wins ties for thresholds below 1/2; at the default threshold the
    two activation responsibilities cannot both exceed it. The threshold
    lies in [0, 1), else ValueError: below 0 a sample would be declared on
    the side its value cannot be on.
    """
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must lie in [0, 1), got {threshold!r}")
    g = np.asarray(gamma, dtype=float)
    if g.ndim != 2 or g.shape[1] != 3:
        raise ValueError("gamma must be an N x 3 matrix")
    return np.where(g[:, 1] > threshold, 1, np.where(g[:, 2] > threshold, -1, 0)).astype(
        np.int8
    )


def _roc_vertices(scores: np.ndarray, active: np.ndarray, fpr_max: float):
    """Tie-grouped ROC curve vertices, starting at (0, 0), up to at least the
    first vertex whose FPR exceeds ``fpr_max``: all that the restricted AUC
    integrates.

    Only the top k + 1 scores are sorted, k = n_pos + floor(fpr_max * n_neg)
    + 2 (at most n - 1), together with every score tied with the last of
    them. Those hold at least floor(fpr_max * n_neg) + 3 negatives, so their
    last vertex lies past ``fpr_max``, and each vertex is the same as with a
    sort of all n scores. A vertex sits at the end of a group of equal
    scores, where the counts do not depend on the order inside the group, so
    the sort need not be stable.
    """
    n = scores.size
    n_pos = int(active.sum())
    n_neg = n - n_pos
    k = min(n_pos + math.floor(fpr_max * n_neg) + 2, n - 1)
    # The (k + 1)-th largest score; keeping every score at least as large
    # keeps its tie group whole.
    top = np.flatnonzero(scores >= np.partition(scores, n - 1 - k)[n - 1 - k])
    order = top[np.argsort(-scores[top])]
    act = active[order]
    tp = np.cumsum(act)
    fp = np.cumsum(~act)
    group_end = np.nonzero(np.diff(scores[order]))[0]
    idx = np.append(group_end, order.size - 1)
    tpr = np.concatenate([[0.0], tp[idx] / n_pos])
    fpr = np.concatenate([[0.0], fp[idx] / n_neg])
    return fpr, tpr


def restricted_auc(scores, active, fpr_max: float = 0.05) -> float:
    """Normalized partial area under the ROC curve over FPR in [0, fpr_max].

    Equal scores are grouped into single threshold steps and the piecewise
    linear curve is integrated exactly, interpolating at the FPR boundary.
    A perfect ranking scores 1 and a chance diagonal scores fpr_max / 2
    normalized, i.e. 0.025 at the default boundary.
    """
    s = np.asarray(scores, dtype=float).ravel()
    a = np.asarray(active, dtype=bool).ravel()
    if s.shape != a.shape:
        raise ValueError("scores and truth must have equal length")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    if not (0.0 < fpr_max <= 1.0):
        raise ValueError("fpr_max must lie in (0, 1]")
    if a.all() or not a.any():
        raise ValueError("restricted AUC is undefined with single-class truth")

    fpr, tpr = _roc_vertices(s, a, fpr_max)
    f0, f1 = fpr[:-1], fpr[1:]
    t0, t1 = tpr[:-1], tpr[1:]
    full = f1 <= fpr_max
    area = float(np.sum((f1[full] - f0[full]) * (t0[full] + t1[full]))) / 2.0
    crossing = np.nonzero((f0 < fpr_max) & (f1 > fpr_max))[0]
    if crossing.size:
        j = int(crossing[0])
        tb = t0[j] + (t1[j] - t0[j]) * (fpr_max - f0[j]) / (f1[j] - f0[j])
        area += float((fpr_max - f0[j]) * (t0[j] + tb)) / 2.0
    return area / fpr_max


def paired_t_test(a, b):
    """Two-sided paired t-test; returns (t, p).

    The p-value comes from the Student CDF through the regularized
    incomplete beta. All-zero differences give p = 1; constant nonzero
    differences give the degenerate p = 0 limit with a warning. scipy is
    imported here, not at module level, so that fitting never loads it.
    """
    from scipy.special import betainc

    av = np.asarray(a, dtype=float).ravel()
    bv = np.asarray(b, dtype=float).ravel()
    if av.shape != bv.shape or av.size < 2:
        raise ValueError("paired t-test needs two equal-length vectors of size >= 2")
    d = av - bv
    n = d.size
    md = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        if md == 0.0:
            return 0.0, 1.0
        warnings.warn("constant nonzero differences: p-value degenerates to 0")
        return math.copysign(math.inf, md), 0.0
    t = md / (sd / math.sqrt(n))
    df = n - 1
    p = float(betainc(0.5 * df, 0.5, df / (df + t * t)))
    return t, p


def win_matrix(auc_runs, alpha: float = 0.01) -> ComparisonTable:
    """Significant pairwise wins from per-scenario AUC repeat vectors.

    ``auc_runs`` maps scenario id -> model id -> AUC vector over repeats. A
    model wins a scenario against another when its mean AUC is higher and the
    paired t-test is significant at ``alpha``. Each unordered pair is tested
    once: swapping the vectors negates every difference exactly, so it negates
    the mean and t and leaves p as it is. ValueError unless every scenario
    holds the same models.
    """
    scenarios = sorted(auc_runs)
    if not scenarios:
        raise ValueError("no scenarios given")
    models = sorted(auc_runs[scenarios[0]])
    for sc in scenarios[1:]:
        if sorted(auc_runs[sc]) != models:
            raise ValueError(
                f"scenario {sc!r} has models {sorted(auc_runs[sc])}, but scenario "
                f"{scenarios[0]!r} has {models}: every scenario needs the same models"
            )
    wins = {}
    for sc in scenarios:
        for i, ma in enumerate(models):
            for mb in models[i + 1 :]:
                va = np.asarray(auc_runs[sc][ma], dtype=float)
                vb = np.asarray(auc_runs[sc][mb], dtype=float)
                if va.size < 2 or va.size != vb.size:
                    raise ValueError("need >= 2 paired repeats per model per scenario")
                _, p = paired_t_test(va, vb)
                mean = np.mean(va - vb)
                wins[(sc, ma, mb)] = bool(mean > 0 and p < alpha)
                wins[(sc, mb, ma)] = bool(mean < 0 and p < alpha)
    win_pct = {
        (ma, mb): 100.0 * np.mean([wins[(sc, ma, mb)] for sc in scenarios])
        for ma in models
        for mb in models
        if ma != mb
    }
    return ComparisonTable(scenarios, models, wins, win_pct)
