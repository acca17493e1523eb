"""Maximum-likelihood EM fitters with moment-matched M-steps.

``fit_ggm`` learns a Gaussian + (negative/positive) Gamma mixture and
``fit_gim`` the inverse-Gamma variant. The E-step is the usual responsibility
computation done in log space; the M-step updates the Gaussian with weighted
moments and converts the weighted (mirrored) moments of the activation
components into shape/rate parameters by the method of moments instead of
numerical shape optimization. Without an explicit initial point a fit starts,
as the variational fits do, from the k-means initialization seeded by
``MLFitConfig.seed``, and its wall time includes that initialization.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import initialization
from .distributions import (
    GAMMA_NEG,
    GAMMA_POS,
    INVGAMMA_NEG,
    INVGAMMA_POS,
    GaussianParams,
    MixtureParams,
    log_pdf,
    mom_gamma,
    mom_invgamma,
)

_VAR_FLOOR = 1e-10
_MEAN_FLOOR = 1e-10
_SHAPE_MIN = 1e-3
_SHAPE_MAX = 1e6

# Activation families (positive side, negative side) by component kind.
_FAMILIES = {"gamma": (GAMMA_POS, GAMMA_NEG), "invgamma": (INVGAMMA_POS, INVGAMMA_NEG)}


@dataclass
class MLFitConfig:
    max_iterations: int = 1000
    rel_tolerance: float = 1e-6
    min_component_mass: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.rel_tolerance <= 0:
            raise ValueError("rel_tolerance must be > 0")


@dataclass
class MLFitResult:
    params: MixtureParams
    responsibilities: np.ndarray
    loglik_trace: np.ndarray
    iterations: int
    wall_time_seconds: float
    converged: bool
    degenerate_rows: int = 0


def _component_log_densities(x: np.ndarray, params: MixtureParams) -> np.ndarray:
    out = np.empty((x.size, 3))
    out[:, 0] = log_pdf(params.comp1, x)
    out[:, 1] = log_pdf(params.comp2, x)
    out[:, 2] = log_pdf(params.comp3, x)
    return out


def _e_step(x: np.ndarray, params: MixtureParams):
    """Responsibilities, observed-data log-likelihood, degenerate-row count."""
    lp = _component_log_densities(x, params)
    with np.errstate(divide="ignore"):
        lp += np.log(params.pi)[None, :]
    m = lp.max(axis=1)
    degenerate = ~np.isfinite(m)
    with np.errstate(invalid="ignore"):
        rho = np.exp(lp - m[:, None])
    ndeg = int(degenerate.sum())
    if ndeg:
        # Zero density under every component: hand the point to the Gaussian.
        rho[degenerate] = (1.0, 0.0, 0.0)
    sums = rho.sum(axis=1)
    gamma = rho / sums[:, None]
    ok = ~degenerate
    loglik = float(np.sum(m[ok] + np.log(sums[ok])))
    return gamma, loglik, ndeg


def e_step(data, params: MixtureParams) -> np.ndarray:
    """N x 3 responsibilities; rows sum to 1 and respect the support signs."""
    x = np.asarray(data, dtype=float).ravel()
    if not np.all(np.isfinite(x)):
        raise ValueError("data must be finite")
    gamma, _, _ = _e_step(x, params)
    return gamma


def _weighted_moments(x: np.ndarray, w: np.ndarray, n_k: float):
    mean = float(w @ x) / n_k
    var = float(w @ (x * x)) / n_k - mean * mean
    return mean, max(var, _VAR_FLOOR)


def _side_update(x, w, n_k, family):
    mean, var = _weighted_moments(family.sign * x, w, n_k)
    mean = max(mean, _MEAN_FLOOR)
    mom = mom_gamma if family.kind == "gamma" else mom_invgamma
    params = mom(mean, var, sign=family.sign)
    shape = min(max(params.shape, _SHAPE_MIN), _SHAPE_MAX)
    if shape != params.shape:
        params = type(params)(shape, params.rate, params.family)
    return params


def m_step(
    data,
    gamma: np.ndarray,
    prev: MixtureParams,
    min_component_mass: float = 1.0,
) -> MixtureParams:
    """Moment-matched parameter update.

    Components whose soft count falls below ``min_component_mass`` keep their
    previous parameters (their mixing proportion still shrinks with the
    count), which keeps near-empty components well defined.
    """
    x = np.asarray(data, dtype=float).ravel()
    n_k = gamma.sum(axis=0)
    pi = n_k / n_k.sum()

    if n_k[0] >= min_component_mass:
        mean, var = _weighted_moments(x, gamma[:, 0], n_k[0])
        comp1 = GaussianParams(mean, 1.0 / var)
    else:
        comp1 = prev.comp1
    comp2 = (
        _side_update(x, gamma[:, 1], n_k[1], prev.comp2.family)
        if n_k[1] >= min_component_mass
        else prev.comp2
    )
    comp3 = (
        _side_update(x, gamma[:, 2], n_k[2], prev.comp3.family)
        if n_k[2] >= min_component_mass
        else prev.comp3
    )
    return MixtureParams(pi, comp1, comp2, comp3)


def _fit_ml(
    data, init: MixtureParams | None, cfg: MLFitConfig, kind: str, label: str
) -> MLFitResult:
    x = np.asarray(data, dtype=float).ravel()
    if not np.all(np.isfinite(x)):
        raise ValueError("data must be finite")
    if init is not None and (init.comp2.family.kind, init.comp3.family.kind) != (kind, kind):
        raise ValueError(f"{label} requires {kind} activation components in init")

    start = time.perf_counter()
    if init is None:
        km = initialization.kmeans_1d(x, 3, cfg.seed)
        init, _ = initialization.init_mixture(x, km, _FAMILIES[kind])
    params = init
    trace = []
    converged = False
    degenerate = 0
    gamma = None
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        gamma, loglik, ndeg = _e_step(x, params)
        degenerate += ndeg
        trace.append(loglik)
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) <= cfg.rel_tolerance * (
            1.0 + abs(trace[-2])
        ):
            converged = True
            break
        if iterations == cfg.max_iterations:
            break
        params = m_step(x, gamma, params, cfg.min_component_mass)
    return MLFitResult(
        params=params,
        responsibilities=gamma,
        loglik_trace=np.asarray(trace),
        iterations=iterations,
        wall_time_seconds=time.perf_counter() - start,
        converged=converged,
        degenerate_rows=degenerate,
    )


def fit_ggm(
    data, init: MixtureParams | None = None, cfg: MLFitConfig | None = None
) -> MLFitResult:
    """ML EM for the Gaussian + Gamma mixture (model GGM); ``init=None`` starts
    from the seeded k-means initialization."""
    return _fit_ml(data, init, cfg or MLFitConfig(), "gamma", "fit_ggm")


def fit_gim(
    data, init: MixtureParams | None = None, cfg: MLFitConfig | None = None
) -> MLFitResult:
    """ML EM for the Gaussian + inverse-Gamma mixture (model GIM); ``init=None``
    starts from the seeded k-means initialization."""
    return _fit_ml(data, init, cfg or MLFitConfig(), "invgamma", "fit_gim")
