"""Shared test oracles and map generators."""

import dataclasses

import numpy as np

from gigmix import estep, vb_em
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


def split_plain_step(cache, point, priors):
    """One plain variational step F from ``point`` (``vb_em._evaluate`` at a
    state, on ``cache``), split in two halves (ROADMAP item 14(a)). Returns
    the NFE after the first half and the point after the whole step.

    The first half is the Z, pi, mu, tau and r updates with q(s) held: the
    state of ``_update_state`` with the old shape functional (``log_a_hat``,
    ``b_hat_s``, ``c_hat_s``), a kernel pass under the new expectations but
    the old E[s] and E[log Gamma(s)], and the KL with the shape term at the
    old E[log r] (``_kl_total`` reads E[log r] only in ``_kl_shape``). The
    second half is the shape update: the full state of ``_update_state``,
    with its NFE as ``_evaluate`` computes it.
    """
    e, old = point.expectations, point.params
    full = vb_em._update_state(point.stats, priors, e.tau, e.s)
    half = dataclasses.replace(full, log_a_hat=old.log_a_hat, b_hat_s=old.b_hat_s, c_hat_s=old.c_hat_s)
    held = dataclasses.replace(vb_em.expectations(half, priors), s=e.s, log_gamma_s=e.log_gamma_s)
    lse = estep._responsibility_pass(cache, held, priors.families)[1]
    kl = vb_em._kl_total(half, priors, dataclasses.replace(held, log_r=e.log_r))
    return lse - kl, vb_em._evaluate(cache, full, priors)
