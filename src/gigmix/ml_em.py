"""Maximum-likelihood EM fitters with moment-matched M-steps.

``fit_ggm`` learns a Gaussian + (negative/positive) Gamma mixture and
``fit_gim`` the inverse-Gamma variant. The E-step is the per-side kernel of
``estep`` that the variational fits use, run under the point estimates; its
sufficient statistics feed the M-step, which updates the Gaussian with
weighted moments and converts the weighted (mirrored) moments of the
activation components into shape/rate parameters by the method of moments
instead of numerical shape optimization. A fit builds its N x 3
responsibilities once, at the end. Without an explicit initial point a fit
starts, as the variational fits do, from the k-means initialization seeded
by ``MLFitConfig.seed``, and its wall time includes that initialization.
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
    mom_gamma,
    mom_invgamma,
)
from .estep import (
    SufficientStats,
    _assemble_gamma,
    _DataCache,
    e_step,
    finite_data,
    point_pass,
    sufficient_stats,
    within_tolerance,
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
    """An ML fit; ``stop_reason`` is "tolerance" or "max_iterations", and
    ``converged`` means the fit was not capped."""

    params: MixtureParams
    responsibilities: np.ndarray
    loglik_trace: np.ndarray
    iterations: int
    wall_time_seconds: float
    converged: bool
    stop_reason: str
    degenerate_rows: int = 0


def _e_step(cache: _DataCache, params: MixtureParams):
    """The shared kernel under point estimates: side responsibilities,
    sufficient statistics, observed-data log-likelihood, degenerate-row count."""
    return point_pass(cache, params)


def _moments(total: float, total_sq: float, n_k: float):
    mean = total / n_k
    return mean, max(total_sq / n_k - mean * mean, _VAR_FLOOR)


def _side_update(total, total_sq, n_k, family):
    mean, var = _moments(total, total_sq, n_k)
    mean = max(mean, _MEAN_FLOOR)
    mom = mom_gamma if family.kind == "gamma" else mom_invgamma
    params = mom(mean, var, sign=family.sign)
    shape = min(max(params.shape, _SHAPE_MIN), _SHAPE_MAX)
    if shape != params.shape:
        params = type(params)(shape, params.rate, params.family)
    return params


def m_step(
    data,
    gamma,
    prev: MixtureParams,
    min_component_mass: float = 1.0,
) -> MixtureParams:
    """Moment-matched parameter update.

    ``gamma`` is an N x 3 responsibility matrix over ``data``, or the
    ``SufficientStats`` the E-step kernel returns (then ``data`` is not
    read). Components whose soft count falls below ``min_component_mass``
    keep their previous parameters (their mixing proportion still shrinks
    with the count), which keeps near-empty components well defined.
    """
    stats = gamma if isinstance(gamma, SufficientStats) else sufficient_stats(data, gamma)
    n_k = stats.n
    pi = n_k / n_k.sum()

    comp1 = prev.comp1
    if n_k[0] >= min_component_mass:
        mean, var = _moments(float(stats.xbar[0]), stats.sxx1, n_k[0])
        comp1 = GaussianParams(mean, 1.0 / var)
    sides = [prev.comp2, prev.comp3]
    for k, comp in enumerate(sides):
        if n_k[k + 1] >= min_component_mass:
            family = comp.family
            total = family.sign * float(stats.xbar[k + 1])
            sides[k] = _side_update(total, float(stats.sq_x[k]), n_k[k + 1], family)
    return MixtureParams(pi, comp1, *sides)


def _fit_ml(
    data, init: MixtureParams | None, cfg: MLFitConfig, kind: str, label: str
) -> MLFitResult:
    x = finite_data(data)
    if init is not None and (init.comp2.family.kind, init.comp3.family.kind) != (kind, kind):
        raise ValueError(f"{label} requires {kind} activation components in init")

    start = time.perf_counter()
    if init is None:
        km = initialization.kmeans_1d(x, 3, cfg.seed)
        init = initialization.init_params(km, _FAMILIES[kind])
    params = init
    cache = _DataCache(x)
    trace = []
    stop_reason = "max_iterations"
    degenerate = 0
    g2 = g3 = None
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        g2, g3, stats, loglik, ndeg = _e_step(cache, params)
        degenerate += ndeg
        trace.append(loglik)
        if len(trace) >= 2 and within_tolerance(trace[-2], trace[-1], cfg.rel_tolerance):
            stop_reason = "tolerance"
            break
        if iterations == cfg.max_iterations:
            break
        params = m_step(x, stats, params, cfg.min_component_mass)
    return MLFitResult(
        params=params,
        responsibilities=_assemble_gamma(cache, g2, g3),
        loglik_trace=np.asarray(trace),
        iterations=iterations,
        wall_time_seconds=time.perf_counter() - start,
        converged=stop_reason != "max_iterations",
        stop_reason=stop_reason,
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
