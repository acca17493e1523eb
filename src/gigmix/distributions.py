"""Mixture component families: log-densities, samplers, and method of moments.

A mixture is a Gaussian noise component (parametrized by mean and precision)
and one activation component on each side of zero, of a Gamma or
inverse-Gamma family. An activation family carries a support sign; a
negative-support component is defined by evaluating its positive twin at
``-x``, so its density lives on x < 0. ``FAMILIES`` names each learner's
two families by kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import log_gamma

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class ComponentFamily:
    """Activation family, "gamma" or "invgamma", plus support side (+1 / -1).

    ``inverse`` says whether the family is an inverse-Gamma, whose
    log-density and rate update read 1/v where a Gamma's read v, and
    ``moments`` gives its method-of-moments component on its own side.
    """

    kind: str
    sign: int

    def __post_init__(self):
        if self.kind not in ("gamma", "invgamma"):
            raise ValueError(f"unknown component kind {self.kind!r}")
        if self.sign not in (1, -1):
            raise ValueError(f"{self.kind} components need sign +1 or -1")

    @property
    def inverse(self) -> bool:
        return self.kind == "invgamma"

    def moments(self, mean: float, variance: float) -> ShapeRateParams:
        """The component of this family whose (mirrored) mean and variance
        are exactly these: Gamma(shape, rate) or inverse-Gamma(shape, scale).
        ValueError for moments that are not positive."""
        if not (math.isfinite(mean) and math.isfinite(variance) and mean > 0 and variance > 0):
            raise ValueError(
                f"method of moments needs positive mean and variance, got {mean}, {variance}"
            )
        q = mean * mean / variance
        if self.inverse:
            return ShapeRateParams(q + 2.0, mean * (q + 1.0), self)
        return ShapeRateParams(q, mean / variance, self)


GAMMA_POS = ComponentFamily("gamma", 1)
GAMMA_NEG = ComponentFamily("gamma", -1)
INVGAMMA_POS = ComponentFamily("invgamma", 1)
INVGAMMA_NEG = ComponentFamily("invgamma", -1)
# Each learner's activation families (positive side, negative side) by kind.
FAMILIES = {"gamma": (GAMMA_POS, GAMMA_NEG), "invgamma": (INVGAMMA_POS, INVGAMMA_NEG)}


@dataclass(frozen=True)
class GaussianParams:
    """Gaussian noise component with mean ``mu`` and precision ``tau``."""

    mu: float
    tau: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"invalid Gaussian parameters mu={self.mu}, tau={self.tau}")

    @property
    def variance(self) -> float:
        return 1.0 / self.tau


@dataclass(frozen=True)
class ShapeRateParams:
    """Gamma or inverse-Gamma component.

    ``rate`` is the rate parameter for Gamma components and the scale
    parameter for inverse-Gamma ones; ``shape`` is shared by both.
    """

    shape: float
    rate: float
    family: ComponentFamily

    def __post_init__(self):
        ok = (
            math.isfinite(self.shape)
            and math.isfinite(self.rate)
            and self.shape > 0
            and self.rate > 0
        )
        if not ok:
            raise ValueError(
                f"invalid shape/rate parameters shape={self.shape}, rate={self.rate}"
            )


@dataclass
class MixtureParams:
    """Point estimate of the three-component mixture.

    Component 1 is the Gaussian; component 2 has positive support and
    component 3 negative support.
    """

    pi: np.ndarray
    comp1: GaussianParams
    comp2: ShapeRateParams
    comp3: ShapeRateParams

    def __post_init__(self):
        # The checks run on Python floats: on a 3-vector they cost a fraction
        # of numpy's calls, and an ML fit makes one MixtureParams per pass.
        pi = np.asarray(self.pi, dtype=float)
        p = pi.tolist() if pi.shape == (3,) else []
        if not p or not all(map(math.isfinite, p)):
            raise ValueError(f"pi must be a finite 3-vector, got {pi!r}")
        # (p0 + p1) + p2 is numpy's order for the sum of three.
        if min(p) < -1e-12 or abs((p[0] + p[1]) + p[2] - 1.0) > 1e-9:
            raise ValueError(f"pi must lie on the probability simplex, got {pi!r}")
        self.pi = np.array([v if v > 0.0 else 0.0 for v in p])
        if self.comp2.family.sign != 1:
            raise ValueError("component 2 must have positive support")
        if self.comp3.family.sign != -1:
            raise ValueError("component 3 must have negative support")

    @property
    def families(self):
        return (self.comp2.family, self.comp3.family)


def log_pdf(params, x):
    """Log-density of one component at ``x`` (scalar or array).

    Returns -inf outside the support; by convention that includes x = 0 for
    every non-Gaussian component (the inverse-Gamma density is singular
    there). A fit masks exact zeros (``estep.nonzero_values``) instead of
    scoring them.
    """
    xa = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xa)):
        raise ValueError("x must be finite")
    if isinstance(params, GaussianParams):
        out = (
            0.5 * math.log(params.tau)
            - 0.5 * _LOG_2PI
            - 0.5 * params.tau * (xa - params.mu) ** 2
        )
        return out if out.ndim else float(out)
    if not isinstance(params, ShapeRateParams):
        raise TypeError(f"unsupported parameter type {type(params).__name__}")

    z = params.family.sign * xa
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.full(z.shape, -np.inf)
    m = z > 0
    s, r = params.shape, params.rate
    lognorm = s * math.log(r) - log_gamma(s)
    zm = z[m]
    lz = np.log(zm)
    if params.family.inverse:
        out[m] = lognorm - (s + 1.0) * lz - r / zm
    else:
        out[m] = lognorm + (s - 1.0) * lz - r * zm
    return float(out[0]) if scalar else out


def sample(params, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` i.i.d. values from one component; deterministic given rng state.

    Gamma variates come from numpy's generator (Marsaglia-Tsang rejection
    with the standard shape<1 boost); inverse-Gamma variates are reciprocals
    of Gamma(shape, rate=scale) draws, an exact transformation.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if isinstance(params, GaussianParams):
        return rng.normal(params.mu, 1.0 / math.sqrt(params.tau), size=n)
    if not isinstance(params, ShapeRateParams):
        raise TypeError(f"unsupported parameter type {type(params).__name__}")
    g = rng.gamma(shape=params.shape, scale=1.0 / params.rate, size=n)
    if params.family.inverse:
        g = 1.0 / g
    return params.family.sign * g


def mom_gamma(mean: float, variance: float, sign: int = 1) -> ShapeRateParams:
    """Gamma(shape, rate) matching the given mean and variance exactly, on
    the side ``sign`` (+1 or -1, else ValueError)."""
    return ComponentFamily("gamma", sign).moments(mean, variance)


def mom_invgamma(mean: float, variance: float, sign: int = 1) -> ShapeRateParams:
    """Inverse-Gamma(shape, scale) matching the given mean and variance
    exactly, on the side ``sign`` (+1 or -1, else ValueError)."""
    return ComponentFamily("invgamma", sign).moments(mean, variance)
