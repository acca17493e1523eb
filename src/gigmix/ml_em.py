"""Maximum-likelihood EM fitters with moment-matched M-steps.

``fit_ggm`` learns a Gaussian + (negative/positive) Gamma mixture and
``fit_gim`` the inverse-Gamma variant. The E-step is the per-side kernel of
``estep`` that the variational fits use, run under the point estimates; its
sufficient statistics feed the M-step, which updates the Gaussian with
weighted moments and converts the weighted (mirrored) moments of the
activation components into shape/rate parameters by the method of moments
instead of numerical shape optimization. The M-step reads only the soft
counts and the weighted sums of x and x**2, so each pass takes only those
(``point_pass``), and the M-step works on them as Python floats. A fit runs
in ``fitloop.fit``, one M-step and one E-step pass per cycle, and records
every log-likelihood, falling ones included: the moment-matched update is
not an ascent. Without an initial point a fit starts from the noise core
(``initialization.core_params``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fitloop, initialization
from .distributions import FAMILIES, GaussianParams, MixtureParams
from .estep import SufficientStats, _DataCache, e_step, point_pass
from .fitloop import FitConfig, FitResult, Point

_VAR_FLOOR = 1e-10
_MEAN_FLOOR = 1e-10
_SHAPE_MIN = 1e-3
_SHAPE_MAX = 1e6
# A component with a smaller soft count keeps its parameters in the M-step.
_MIN_COMPONENT_MASS = 1.0


@dataclass
class MLFitConfig(FitConfig):
    max_iterations: int = 1000


@dataclass
class MLFitResult(FitResult):
    """An ML fit; ``stop_reason`` is never "no_ascent"."""

    params: MixtureParams
    loglik_trace: np.ndarray


# The shared kernel under point estimates: sufficient statistics,
# observed-data log-likelihood, degenerate-row count and the coefficients it
# ran with. A module global that ``_point`` looks up at call time, so a
# wrapper put in its place sees every pass.
_e_step = point_pass


def _moments(total: float, total_sq: float, n_k: float):
    mean = total / n_k
    return mean, max(total_sq / n_k - mean * mean, _VAR_FLOOR)


def _side_update(total, total_sq, n_k, family):
    mean, var = _moments(total, total_sq, n_k)
    mean = max(mean, _MEAN_FLOOR)
    params = family.moments(mean, var)
    shape = min(max(params.shape, _SHAPE_MIN), _SHAPE_MAX)
    if shape != params.shape:
        params = type(params)(shape, params.rate, params.family)
    return params


def m_step(stats: SufficientStats, prev: MixtureParams) -> MixtureParams:
    """Moment-matched parameter update from the E-step kernel's statistics
    (``estep.sufficient_stats`` forms them from an N x 3 responsibility
    matrix). Components whose soft count is below one sample keep their
    previous parameters (their mixing proportion still shrinks with the
    count), which keeps near-empty components well defined; when the counts
    sum to zero, the proportions are kept too.
    """
    n_k = stats.n.tolist()
    xbar = stats.xbar.tolist()
    sq_x = stats.sq_x.tolist()
    # numpy's order for the sum of three; a map of exact zeros counts none.
    total = (n_k[0] + n_k[1]) + n_k[2]
    pi = [n / total for n in n_k] if total else prev.pi

    comp1 = prev.comp1
    if n_k[0] >= _MIN_COMPONENT_MASS:
        mean, var = _moments(xbar[0], stats.sxx1, n_k[0])
        comp1 = GaussianParams(mean, 1.0 / var)
    sides = [prev.comp2, prev.comp3]
    for k, comp in enumerate(sides):
        if n_k[k + 1] >= _MIN_COMPONENT_MASS:
            family = comp.family
            sides[k] = _side_update(family.sign * xbar[k + 1], sq_x[k], n_k[k + 1], family)
    return MixtureParams(pi, comp1, *sides)


def _point(cache: _DataCache, params: MixtureParams) -> Point:
    """One E-step pass at ``params``, with the coefficients it ran with."""
    return Point(params, *_e_step(cache, params))


def _cycle(cache: _DataCache, recorded: Point, room: int) -> Point:
    """One M-step from the recorded point and one E-step pass."""
    return _point(cache, m_step(recorded.stats, recorded.params))


def _fit_ml(
    data, init: MixtureParams | None, cfg: MLFitConfig, kind: str, label: str
) -> MLFitResult:
    if init is not None and init.families != FAMILIES[kind]:
        raise ValueError(f"{label} requires {kind} activation components in init")
    last, trace, common = fitloop.fit(
        data, init, initialization.core_params, cfg, FAMILIES[kind], _point, _cycle,
        ascent_only=False, binned=False,
    )
    return MLFitResult(params=last.params, loglik_trace=trace, **common)


def fit_ggm(
    data, init: MixtureParams | None = None, cfg: MLFitConfig | None = None
) -> MLFitResult:
    """ML EM for the Gaussian + Gamma mixture (model GGM); ``init=None`` starts
    from the noise core (``initialization.core_params``)."""
    return _fit_ml(data, init, cfg or MLFitConfig(), "gamma", "fit_ggm")


def fit_gim(
    data, init: MixtureParams | None = None, cfg: MLFitConfig | None = None
) -> MLFitResult:
    """ML EM for the Gaussian + inverse-Gamma mixture (model GIM); ``init=None``
    starts from the noise core (``initialization.core_params``)."""
    return _fit_ml(data, init, cfg or MLFitConfig(), "invgamma", "fit_gim")
