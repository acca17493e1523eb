"""Shared test oracles and map generators."""

import numpy as np

from gigmix.distributions import GaussianParams, mom_gamma, mom_invgamma, sample


def brute_force_restricted_auc(scores, active, fpr_max=0.05):
    """Exhaustive-threshold ROC construction with trapezoidal clipping.

    Independent of the production path: vertices come from explicit >=
    thresholding at every distinct score, integration from numpy trapezoid
    after inserting an interpolated boundary vertex.
    """
    scores = np.asarray(scores, dtype=float)
    active = np.asarray(active, dtype=bool)
    thresholds = np.unique(scores)[::-1]
    pos = scores[active]
    neg = scores[~active]
    tpr = [0.0]
    fpr = [0.0]
    for t in thresholds:
        tpr.append(np.mean(pos >= t))
        fpr.append(np.mean(neg >= t))
    fpr = np.asarray(fpr)
    tpr = np.asarray(tpr)
    keep = fpr <= fpr_max
    fx = np.append(fpr[keep], fpr_max)
    fy = np.append(tpr[keep], np.interp(fpr_max, fpr, tpr))
    return float(np.trapezoid(fy, fx)) / fpr_max


def own_family_map(kind, pi, mean, var, n, seed):
    """A map with a known answer: N(0, 1) noise and activation drawn from the
    learners' own family, Gamma (``kind`` "gamma") or inverse-Gamma
    ("invgamma"), with the given mean and variance, mirrored on the negative
    side. ``pi`` gives the shares of noise, positive and negative activation;
    ``pi = (1, 0, 0)`` is pure noise. Returns the values and their component
    labels (1, 2, 3)."""
    rng = np.random.default_rng(seed)
    labels = rng.choice(3, size=n, p=list(pi)) + 1
    x = sample(GaussianParams(0.0, 1.0), n, rng)
    mom = mom_gamma if kind == "gamma" else mom_invgamma
    for label, sign in ((2, 1), (3, -1)):
        active = labels == label
        if active.any():
            x[active] = sample(mom(mean, var, sign=sign), int(active.sum()), rng)
    return x, labels
