"""The one E-step kernel shared by all four learners and the initialization.

Each sample competes only between the Gaussian and the activation component
on its own side of zero; exact zeros belong to the Gaussian. The kernel runs
one two-way softmax per support side over arrays precomputed once per fit,
and returns the activation responsibilities of each side, the sufficient
statistics every parameter update needs, and the total log-sum-exp.

Its coefficients come as an ``ExpectationCache``. The variational learners
fill it with posterior expectations. The maximum-likelihood log-densities
have the same form with point values in place of expectations
(``point_coefficients``, run by ``point_pass``), and then the total
log-sum-exp is the observed-data log-likelihood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import MixtureParams
from .special import log_gamma

_LOG_2PI = math.log(2.0 * math.pi)

# The Gaussian sums are the data totals minus the side sums. When the Gaussian
# holds less than this share of the count or of the sum of squares, that
# difference would cancel, and the kernel sums the Gaussian side weights
# directly instead.
_DIRECT_GAUSSIAN_SHARE = 1e-3


@dataclass
class ExpectationCache:
    """Coefficients of the responsibility pass: posterior expectations for the
    variational learners, point values for the maximum-likelihood ones."""

    pi: np.ndarray
    log_pi: np.ndarray
    mu: float
    mu2: float
    tau: float
    log_tau: float
    r: np.ndarray
    log_r: np.ndarray
    s: np.ndarray
    log_gamma_s: np.ndarray


@dataclass
class SufficientStats:
    """Soft-count statistics of one responsibility matrix.

    ``xbar`` is the signed weighted sum per component and ``sxx1`` the
    Gaussian's weighted sum of squares; ``log_x``, ``recip_x`` and ``sq_x``
    accumulate log, reciprocal and square of the mirrored values for the two
    activation components.
    """

    n: np.ndarray
    xbar: np.ndarray
    sxx1: float
    log_x: np.ndarray
    recip_x: np.ndarray
    sq_x: np.ndarray


def finite_data(data) -> np.ndarray:
    """``data`` as a flat float array; ValueError unless every value is finite."""
    x = np.asarray(data, dtype=float).ravel()
    if not np.all(np.isfinite(x)):
        raise ValueError("data must be finite")
    return x


class _DataCache:
    """Per-fit precomputations: support indices and mirrored transforms.

    The responsibility pass only ever combines these arrays with scalar
    coefficients, so everything data-dependent is computed exactly once per
    fit. ``xp``/``xn`` hold the mirrored values on each support side.
    """

    __slots__ = (
        "x",
        "sq",
        "pos",
        "neg",
        "zero",
        "xp",
        "xn",
        "sq_p",
        "sq_n",
        "log_xp",
        "log_xn",
        "inv_xp",
        "inv_xn",
        "sum_x",
        "sum_sq",
    )

    def __init__(self, x: np.ndarray):
        self.x = x
        self.sq = x * x
        self.pos = np.nonzero(x > 0)[0]
        self.neg = np.nonzero(x < 0)[0]
        self.zero = np.nonzero(x == 0)[0]
        self.xp = x[self.pos]
        self.xn = -x[self.neg]
        self.sq_p = self.xp * self.xp
        self.sq_n = self.xn * self.xn
        self.log_xp = np.log(self.xp)
        self.log_xn = np.log(self.xn)
        self.inv_xp = 1.0 / self.xp
        self.inv_xn = 1.0 / self.xn
        self.sum_x = float(self.x.sum())
        self.sum_sq = float(self.sq.sum())


def point_coefficients(params: MixtureParams) -> ExpectationCache:
    """Kernel coefficients of a point estimate: log pi (-inf for a zero
    proportion), mu, mu**2, tau, log tau, s, r, log r and log Gamma(s)."""
    with np.errstate(divide="ignore"):
        log_pi = np.log(params.pi)
    comp1, sides = params.comp1, (params.comp2, params.comp3)
    s = np.array([c.shape for c in sides])
    r = np.array([c.rate for c in sides])
    return ExpectationCache(
        pi=params.pi,
        log_pi=log_pi,
        mu=comp1.mu,
        mu2=comp1.mu * comp1.mu,
        tau=comp1.tau,
        log_tau=math.log(comp1.tau),
        r=r,
        log_r=np.log(r),
        s=s,
        log_gamma_s=np.array([log_gamma(float(v)) for v in s]),
    )


def _gaussian_const(e: ExpectationCache) -> float:
    """Gaussian log-responsibility at x = 0."""
    return e.log_pi[0] + 0.5 * e.log_tau - 0.5 * _LOG_2PI - 0.5 * e.tau * e.mu2


def _gaussian_log_rho(e: ExpectationCache, sq, vals, sign: float = 1.0) -> np.ndarray:
    """Gaussian log-responsibility at x = sign * vals, where sq = x**2."""
    a = sq * (-0.5 * e.tau)
    a += vals * (sign * (e.tau * e.mu))
    a += _gaussian_const(e)
    return a


def _side_log_rho(e: ExpectationCache, k: int, fam, logs, vals, invs) -> np.ndarray:
    const = e.log_pi[k + 1] + e.s[k] * e.log_r[k] - e.log_gamma_s[k]
    if fam.kind == "gamma":
        b = logs * (e.s[k] - 1.0)
        b += vals * (-e.r[k])
    else:
        b = logs * (-(e.s[k] + 1.0))
        b += invs * (-e.r[k])
    b += const
    return b


def _side_softmax(a_side: np.ndarray, b_side: np.ndarray):
    """Two-way softmax of (Gaussian, activation) on one support side.

    Returns the activation responsibility and the per-point log-sum-exp, in
    the storage of ``b_side`` and ``a_side``, which it overwrites.
    """
    m = np.maximum(a_side, b_side)
    a_side -= m
    np.exp(a_side, out=a_side)
    b_side -= m
    np.exp(b_side, out=b_side)
    a_side += b_side
    b_side /= a_side
    np.log(a_side, out=a_side)
    a_side += m
    return b_side, a_side


def _gaussian_share(a_side: np.ndarray, lse: np.ndarray) -> np.ndarray:
    """Gaussian responsibility on one side; degenerate points get 1."""
    with np.errstate(invalid="ignore"):
        g1 = np.exp(a_side - lse)
    g1[~np.isfinite(lse)] = 1.0
    return g1


def _responsibility_pass(cache: _DataCache, e: ExpectationCache, families):
    """One packed pass: side responsibilities, sufficient stats, total LSE and
    the number of degenerate points.

    Off-support responsibilities are identically zero by construction; data
    points at exactly zero are assigned to the Gaussian. A point with zero
    density under every component it can belong to is degenerate: it goes to
    the Gaussian and is left out of the total LSE.
    """
    g2, lse_pos = _side_softmax(
        _gaussian_log_rho(e, cache.sq_p, cache.xp),
        _side_log_rho(e, 0, families[0], cache.log_xp, cache.xp, cache.inv_xp),
    )
    g3, lse_neg = _side_softmax(
        _gaussian_log_rho(e, cache.sq_n, cache.xn, -1.0),
        _side_log_rho(e, 1, families[1], cache.log_xn, cache.xn, cache.inv_xn),
    )
    a_zero = _gaussian_const(e)
    n_zero = cache.zero.size
    lse_zero = n_zero * a_zero if n_zero else 0.0
    lse_total = float(lse_pos.sum()) + float(lse_neg.sum()) + lse_zero
    degenerate = 0
    if not math.isfinite(lse_total):
        lse_total = 0.0
        for g, lse in ((g2, lse_pos), (g3, lse_neg)):
            bad = ~np.isfinite(lse)
            g[bad] = 0.0
            degenerate += int(bad.sum())
            lse_total += float(lse[~bad].sum())
        if math.isfinite(lse_zero):
            lse_total += lse_zero
        else:
            degenerate += n_zero

    n2 = float(g2.sum())
    n3 = float(g3.sum())
    sx2 = float(g2 @ cache.xp)
    sx3 = float(g3 @ cache.xn)
    sq2 = float(g2 @ cache.sq_p)
    sq3 = float(g3 @ cache.sq_n)
    n1 = cache.x.size - n2 - n3
    sx1 = cache.sum_x - sx2 + sx3
    sxx1 = cache.sum_sq - sq2 - sq3
    if n1 < _DIRECT_GAUSSIAN_SHARE * cache.x.size or sxx1 < _DIRECT_GAUSSIAN_SHARE * cache.sum_sq:
        g1p = _gaussian_share(_gaussian_log_rho(e, cache.sq_p, cache.xp), lse_pos)
        g1n = _gaussian_share(_gaussian_log_rho(e, cache.sq_n, cache.xn, -1.0), lse_neg)
        n1 = n_zero + float(g1p.sum()) + float(g1n.sum())
        sx1 = float(g1p @ cache.xp) - float(g1n @ cache.xn)
        sxx1 = float(g1p @ cache.sq_p) + float(g1n @ cache.sq_n)
    stats = SufficientStats(
        n=np.array([n1, n2, n3]),
        xbar=np.array([sx1, sx2, -sx3]),
        sxx1=sxx1,
        log_x=np.array([float(g2 @ cache.log_xp), float(g3 @ cache.log_xn)]),
        recip_x=np.array([float(g2 @ cache.inv_xp), float(g3 @ cache.inv_xn)]),
        sq_x=np.array([sq2, sq3]),
    )
    return g2, g3, stats, lse_total, degenerate


def point_pass(cache: _DataCache, params: MixtureParams):
    """The kernel under a point estimate: the maximum-likelihood E-step. A zero
    proportion can leave points degenerate, whose NaNs are expected."""
    with np.errstate(invalid="ignore"):
        return _responsibility_pass(cache, point_coefficients(params), params.families)


def _assemble_gamma(cache: _DataCache, g2: np.ndarray, g3: np.ndarray) -> np.ndarray:
    gamma = np.zeros((cache.x.size, 3))
    gamma[:, 0] = 1.0
    gamma[cache.pos, 0] = 1.0 - g2
    gamma[cache.pos, 1] = g2
    gamma[cache.neg, 0] = 1.0 - g3
    gamma[cache.neg, 2] = g3
    return gamma


def e_step(data, params: MixtureParams) -> np.ndarray:
    """N x 3 responsibilities under a point estimate; rows sum to 1 and
    respect the support signs."""
    cache = _DataCache(finite_data(data))
    g2, g3, _, _, _ = point_pass(cache, params)
    return _assemble_gamma(cache, g2, g3)


def sufficient_stats(data, gamma: np.ndarray) -> SufficientStats:
    """Soft-count statistics of an arbitrary N x 3 responsibility matrix."""
    cache = _DataCache(np.asarray(data, dtype=float).ravel())
    return SufficientStats(
        n=gamma.sum(axis=0),
        xbar=gamma.T @ cache.x,
        sxx1=float(gamma[:, 0] @ cache.sq),
        log_x=np.array(
            [gamma[cache.pos, 1] @ cache.log_xp, gamma[cache.neg, 2] @ cache.log_xn]
        ),
        recip_x=np.array(
            [gamma[cache.pos, 1] @ cache.inv_xp, gamma[cache.neg, 2] @ cache.inv_xn]
        ),
        sq_x=cache.sq @ gamma[:, 1:],
    )
