"""Analytical variational Bayes fitters for the three-component mixtures.

``fit_bggm`` (Gamma activations) and ``fit_bgim`` (inverse-Gamma activations)
run a conjugate coordinate-ascent on the factorized posterior
q(Z) q(pi) q(mu1) q(tau1) q(s) q(r). Every update is closed form; the shape
posteriors use an unnormalized conjugate family whose expectations are
computed with a Laplace approximation (mean through the inverse digamma) and
a Taylor correction for E[log Gamma(s)]. The coordinate ascent is
accelerated by SQUAREM extrapolation and monitored through the negative free
energy (NFE), which the recorded path never lets fall.

Posterior parametrizations mirror the prior ones: the Dirichlet weights
``lambda_hat``; Gaussian mean ``(m_hat, tau_hat)`` (mean, precision); the
noise precision Gamma ``(c_hat, b_hat)`` (shape, scale); the rate posteriors
``(d_hat, e_hat)`` (shape, rate); and per activation component the shape
functional ``(log_a_hat, b_hat_s, c_hat_s)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fitloop, initialization
from .distributions import FAMILIES, ComponentFamily
from .estep import (
    ExpectationCache,
    SufficientStats,
    _DataCache,
    _responsibility_pass,
    finite_data,
    finite_data_and_gamma,
    log_weights,
    point_coefficients,
    responsibilities_at,
    sufficient_stats,
)
from .fitloop import FitConfig, FitResult, Point
from .special import digamma, inv_digamma, log_gamma, trigamma, trigamma_tetragamma


class VBNumericError(RuntimeError):
    """Raised when a variational quantity leaves the representable range."""


class _PriorTerms:
    """What the KL takes from the priors alone: log Gamma(3 lambda0), 3 log
    Gamma(lambda0), log Gamma(c0_tau), log b0_tau, and per activation log
    Gamma(d0) and log e0. The rows a pass takes are the data cache's alone
    (``estep._DataCache.height``)."""

    __slots__ = ("lg_3lam0", "three_lg_lam0", "lg_c0_tau", "log_b0_tau", "lg_d0", "log_e0")

    def __init__(self, priors: HyperPriors):
        self.lg_3lam0 = log_gamma(3 * priors.lambda0)
        self.three_lg_lam0 = 3 * log_gamma(priors.lambda0)
        self.lg_c0_tau = log_gamma(priors.c0_tau)
        self.log_b0_tau = math.log(priors.b0_tau)
        self.lg_d0 = tuple(map(log_gamma, priors.d0))
        self.log_e0 = tuple(map(math.log, priors.e0))


@dataclass(frozen=True)
class HyperPriors:
    """Fixed hyper-prior parameters; per-activation entries are (comp2, comp3)."""

    lambda0: float
    m0: float
    tau0: float
    c0_tau: float
    b0_tau: float
    d0: tuple
    e0: tuple
    log_a0: tuple
    b0_s: tuple
    c0_s: tuple
    families: tuple

    def __post_init__(self):
        # Every entry finite, and all but the locations m0 and log_a0 > 0.
        for name in ("lambda0", "m0", "tau0", "c0_tau", "b0_tau", "d0", "e0", "log_a0", "b0_s", "c0_s"):
            value, positive = getattr(self, name), name not in ("m0", "log_a0")
            if not all(math.isfinite(v) and (v > 0 or not positive) for v in np.atleast_1d(value)):
                raise ValueError(f"hyper-prior {name} must be finite{' and > 0' if positive else ''}, got {value}")
        if tuple(getattr(fam, "sign", 0) for fam in self.families) != (1, -1):
            raise ValueError("hyper-prior families must be (positive-support, negative-support)")
        # Set here, not on first use: an attribute added to the instance
        # later slows every attribute lookup on it in this Python.
        object.__setattr__(self, "_terms", _PriorTerms(self))


@dataclass
class VBState:
    """Posterior hyper-parameters for all variational factors."""

    lambda_hat: np.ndarray
    m_hat: float
    tau_hat: float
    c_hat: float
    b_hat: float
    d_hat: np.ndarray
    e_hat: np.ndarray
    log_a_hat: np.ndarray
    b_hat_s: np.ndarray
    c_hat_s: np.ndarray


@dataclass
class VBFitResult(FitResult):
    """A variational fit. ``iterations`` counts every E-step pass but the one
    at the k-means start, those of rejected SQUAREM candidates included: 3 or
    4 per full SQUAREM cycle (see ``_cycle``), 1 per plain step after a
    binned level. ``nfe_trace`` holds the start and one NFE per recorded
    cycle or step."""

    state: VBState
    expectations: ExpectationCache
    nfe_trace: np.ndarray
    priors: HyperPriors


@dataclass
class VBFitConfig(FitConfig):
    max_iterations: int = 500


def default_hyperpriors(pos_family: ComponentFamily, neg_family: ComponentFamily) -> HyperPriors:
    """Standard weakly-informative hyper-priors.

    The Gaussian block gets a zero-mean unit-precision mean prior and a flat
    precision prior (shape 0.01, scale 100). Each activation shape/rate block
    is built from the family's activation prior (``ComponentFamily.prior``),
    the component with mean and variance 10, of shape s and rate r: the rate
    prior is Gamma(d0=r, e0=1), and the shape functional is centered so its
    Laplace mean and variance equal s (b0 = c0 = 1/(s trigamma(s))).
    """
    families = (pos_family, neg_family)
    sides = []
    for fam in families:
        base = fam.prior
        b0 = 1.0 / (base.shape * trigamma(base.shape))
        la0 = b0 * digamma(base.shape) - b0 * math.log(base.rate)
        if fam.inverse:
            la0 = -la0
        sides.append((base.rate, 1.0, la0, b0, b0))
    d0, e0, log_a0, b0_s, c0_s = zip(*sides)
    return HyperPriors(
        lambda0=5.0,
        m0=0.0,
        tau0=1.0,
        c0_tau=0.01,
        b0_tau=100.0,
        d0=d0,
        e0=e0,
        log_a0=log_a0,
        b0_s=b0_s,
        c0_s=c0_s,
        families=families,
    )


def update_responsibilities(data, expectations: ExpectationCache, families):
    """Responsibilities and sufficient statistics for one pass over the data:
    every sum of the kernel, that of 1/v included, whatever the families."""
    cache = _DataCache(finite_data(data))
    stats = _responsibility_pass(cache, expectations, families)[0]
    return responsibilities_at(cache, expectations, families), stats


def update_pi(stats: SufficientStats, priors: HyperPriors) -> np.ndarray:
    return priors.lambda0 + stats.n


def update_mu(stats: SufficientStats, priors: HyperPriors, e_tau: float):
    tau_hat = priors.tau0 + e_tau * stats.n[0]
    m_hat = (priors.tau0 * priors.m0 + e_tau * stats.xbar[0]) / tau_hat
    return m_hat, tau_hat


def _update_tau_from_stats(
    stats: SufficientStats, priors: HyperPriors, e_mu: float, e_mu2: float
):
    n1, sx = float(stats.n[0]), float(stats.xbar[0])
    c_hat = priors.c0_tau + 0.5 * n1
    quad = stats.sxx1 - 2.0 * e_mu * sx + n1 * e_mu2
    b_hat = 1.0 / (1.0 / priors.b0_tau + 0.5 * quad)
    return c_hat, b_hat


def update_tau(data, gamma: np.ndarray, priors: HyperPriors, e_mu: float, e_mu2: float):
    return _update_tau_from_stats(sufficient_stats(data, gamma), priors, e_mu, e_mu2)


def update_r(stats: SufficientStats, priors: HyperPriors, e_s: np.ndarray):
    """Rate posteriors; the conjugate data statistic is the mirrored weighted
    sum for Gamma components and the mirrored reciprocal sum for
    inverse-Gamma ones."""
    d_hat = np.empty(2)
    e_hat = np.empty(2)
    for k, fam in enumerate(priors.families):
        d_hat[k] = priors.d0[k] + e_s[k] * stats.n[k + 1]
        stat = stats.recip_x[k] if fam.inverse else fam.sign * stats.xbar[k + 1]
        e_hat[k] = priors.e0[k] + stat
    return d_hat, e_hat


def update_shape(stats: SufficientStats, priors: HyperPriors):
    log_a_hat = np.asarray(priors.log_a0) + stats.log_x
    b_hat_s = np.asarray(priors.b0_s) + stats.n[1:]
    c_hat_s = np.asarray(priors.c0_s) + stats.n[1:]
    return log_a_hat, b_hat_s, c_hat_s


def _shape_laplace_mean(log_a: float, b: float, c: float, log_r: float, fam: ComponentFamily) -> float:
    sign = -1.0 if fam.inverse else 1.0
    arg = (sign * log_a + c * log_r) / b
    if not math.isfinite(arg):
        raise VBNumericError(
            f"shape Laplace argument is not finite: log_a={log_a}, b={b}, c={c}, log_r={log_r}"
        )
    return inv_digamma(arg)


def _taylor_log_gamma_mean(mu: float, b: float, tri: float, tetra: float) -> float:
    """E[log Gamma(s)] to second order; ``tri`` and ``tetra`` are trigamma
    and tetragamma at ``mu``. VBNumericError unless it is finite: Python
    floats pass an overflow or inf / inf on without a word."""
    value = log_gamma(mu) + 1.0 / b + tetra * mu / (tri * b)
    if not math.isfinite(value):
        raise VBNumericError(f"E[log Gamma(s)] is not finite: mean={mu}, b={b}")
    return value


def expectations(state: VBState, priors: HyperPriors) -> ExpectationCache:
    """All posterior expectations entering the responsibility update and NFE.
    The scalar work runs on Python floats, each state array read once; a
    non-finite E[r] or E[log Gamma(s)] raises VBNumericError. The cache's
    ``kl_terms`` carry the special-function values the KL reads again."""
    lam = state.lambda_hat.tolist()
    d_hat, e_hat = state.d_hat.tolist(), state.e_hat.tolist()
    log_a, b_s, c_s = state.log_a_hat.tolist(), state.b_hat_s.tolist(), state.c_hat_s.tolist()
    # Lists of fixed length are spelled out: a comprehension costs a function
    # call in this Python.
    lam_tot = (lam[0] + lam[1]) + lam[2]  # numpy's order for the sum of three
    psi_tot = digamma(lam_tot)
    log_pi = [digamma(lam[0]) - psi_tot, digamma(lam[1]) - psi_tot, digamma(lam[2]) - psi_tot]
    psi_d = [digamma(d_hat[0]), digamma(d_hat[1])]
    log_r = [psi_d[0] - math.log(e_hat[0]), psi_d[1] - math.log(e_hat[1])]
    s, log_gamma_s, tri_s = [], [], []
    for k, fam in enumerate(priors.families):
        mu = _shape_laplace_mean(log_a[k], b_s[k], c_s[k], log_r[k], fam)
        tri, tetra = trigamma_tetragamma(mu)
        s.append(mu)
        log_gamma_s.append(_taylor_log_gamma_mean(mu, b_s[k], tri, tetra))
        tri_s.append(tri)
    psi_c = digamma(state.c_hat)
    r = [d_hat[0] / e_hat[0], d_hat[1] / e_hat[1]]
    if not math.isfinite(r[0] + r[1]):
        raise VBNumericError(f"E[r] is not finite: d_hat={d_hat}, e_hat={e_hat}")
    pi = [lam[0] / lam_tot, lam[1] / lam_tot, lam[2] / lam_tot]
    flat = np.array(pi + log_pi + r + log_r + s + log_gamma_s)
    e = ExpectationCache(
        pi=flat[0:3],
        log_pi=flat[3:6],
        mu=state.m_hat,
        mu2=state.m_hat * state.m_hat + 1.0 / state.tau_hat,
        tau=state.b_hat * state.c_hat,
        log_tau=psi_c + math.log(state.b_hat),
        r=flat[6:8],
        log_r=flat[8:10],
        s=flat[10:12],
        log_gamma_s=flat[12:14],
    )
    e.kl_terms = (state, psi_d, psi_c, tri_s)
    return e


def _kl_dirichlet(lam_hat: list, lam0: float, log_pi: list, terms: _PriorTerms) -> float:
    """``log_pi`` is E[log pi] under ``lam_hat``, as ``expectations`` gives it."""
    tot_hat = (lam_hat[0] + lam_hat[1]) + lam_hat[2]
    out = log_gamma(tot_hat) - terms.lg_3lam0 + terms.three_lg_lam0
    for v, lp in zip(lam_hat, log_pi):
        out += -log_gamma(v) + (v - lam0) * lp
    return out


def _kl_gaussian(m_q: float, tau_q: float, m_p: float, tau_p: float) -> float:
    return 0.5 * (
        math.log(tau_q / tau_p) + tau_p * (1.0 / tau_q + (m_q - m_p) ** 2) - 1.0
    )


def _kl_gamma(d_q, psi_q, e_q, log_e_q, d_p, lg_p, e_p, log_e_p) -> float:
    """KL(Gamma(d_q, rate e_q) || Gamma(d_p, rate e_p)), given digamma(d_q),
    log Gamma(d_p) and the logs of both rates."""
    return (
        (d_q - d_p) * psi_q
        - log_gamma(d_q)
        + lg_p
        + d_p * (log_e_q - log_e_p)
        + d_q * (e_p - e_q) / e_q
    )


def _kl_shape(b_s: list, s: list, tri_s: list, log_r: list, priors: HyperPriors) -> float:
    """KL between the Laplace Gaussians of the posterior and prior shape
    functionals; the prior functional is evaluated at the current posterior
    mean of log r (its rate coupling), so the divergence vanishes exactly at
    prior recovery. ``tri_s`` is trigamma at the posterior means ``s``."""
    out = 0.0
    for k, fam in enumerate(priors.families):
        mu_q = s[k]
        prec_q = b_s[k] * tri_s[k]
        mu_p = _shape_laplace_mean(
            priors.log_a0[k], priors.b0_s[k], priors.c0_s[k], log_r[k], fam
        )
        prec_p = priors.b0_s[k] * trigamma(mu_p)
        out += 0.5 * (
            math.log(prec_q / prec_p)
            + prec_p / prec_q
            + prec_p * (mu_q - mu_p) ** 2
            - 1.0
        )
    return out


def _kl_total(state: VBState, priors: HyperPriors, e: ExpectationCache) -> float:
    """The KL of every factor from its prior. digamma of d_hat and c_hat and
    trigamma of E[s] are ``e.kl_terms`` when ``expectations`` made ``e`` for
    this state."""
    d_hat, e_hat = state.d_hat.tolist(), state.e_hat.tolist()
    s = e.s.tolist()
    if e.kl_terms is not None and e.kl_terms[0] is state:
        psi_d, psi_c, tri_s = e.kl_terms[1:]
    else:
        psi_d, psi_c = [digamma(v) for v in d_hat], digamma(state.c_hat)
        tri_s = [trigamma(v) for v in s]
    terms = priors._terms
    try:
        kl = _kl_dirichlet(
            state.lambda_hat.tolist(), priors.lambda0, e.log_pi.tolist(), terms
        )
        kl += _kl_gaussian(state.m_hat, state.tau_hat, priors.m0, priors.tau0)
        # tau's factors have scales: a rate ratio is the inverse scale ratio,
        # so the prior's scale takes the posterior's rate slot and vice versa.
        kl += _kl_gamma(
            state.c_hat, psi_c, priors.b0_tau, terms.log_b0_tau,
            priors.c0_tau, terms.lg_c0_tau, state.b_hat, math.log(state.b_hat),
        )
        for k in range(2):
            kl += _kl_gamma(
                d_hat[k], psi_d[k], e_hat[k], math.log(e_hat[k]),
                priors.d0[k], terms.lg_d0[k], priors.e0[k], terms.log_e0[k],
            )
        kl += _kl_shape(state.b_hat_s.tolist(), s, tri_s, e.log_r.tolist(), priors)
    except OverflowError as exc:
        raise VBNumericError(f"KL divergence overflowed: {exc}") from exc
    return kl


def negative_free_energy(
    data,
    gamma: np.ndarray,
    state: VBState,
    priors: HyperPriors,
    expectations_cache: ExpectationCache,
) -> float:
    """Variational lower bound on the log evidence.

    Expected complete-data log-likelihood plus assignment entropy, minus the
    KL divergences of every parameter factor from its prior. Terms of the
    form 0 * (-inf) arising from out-of-support responsibilities contribute
    zero by convention. ``expectations_cache`` must be
    ``expectations(state, priors)``. ValueError unless the data are finite and
    ``gamma`` is N x 3, as in ``sufficient_stats``.
    """
    x, gamma = finite_data_and_gamma(data, gamma)
    log_rho = log_weights(x, expectations_cache, priors.families)
    with np.errstate(invalid="ignore", divide="ignore"):
        coupled = np.where(gamma > 0, gamma * log_rho, 0.0)
        entropy = np.where(gamma > 0, gamma * np.log(gamma), 0.0)
    value = float(coupled.sum() - entropy.sum()) - _kl_total(state, priors, expectations_cache)
    if not math.isfinite(value):
        raise VBNumericError(f"negative free energy is not finite: {value}")
    return value


def _update_state(stats: SufficientStats, priors: HyperPriors, e_tau: float, e_s) -> VBState:
    lam = update_pi(stats, priors)
    m_hat, tau_hat = update_mu(stats, priors, e_tau)
    c_hat, b_hat = _update_tau_from_stats(stats, priors, m_hat, m_hat * m_hat + 1.0 / tau_hat)
    d_hat, e_hat = update_r(stats, priors, np.asarray(e_s, dtype=float))
    log_a_hat, b_hat_s, c_hat_s = update_shape(stats, priors)
    return VBState(lam, m_hat, tau_hat, c_hat, b_hat, d_hat, e_hat, log_a_hat, b_hat_s, c_hat_s)


def _pack(state: VBState) -> np.ndarray:
    """The state as one vector for SQUAREM: the logs of its positive entries,
    m_hat, and log_a_hat per unit of b_hat_s. log_a_hat is a weighted sum of
    log-values that grows with n; as it is, its steps outweigh the others by
    orders of magnitude and would set the step length alone. The array
    entries' logs are taken by one ``np.log``, the scalars' by ``math.log``."""
    log_a, b_s = state.log_a_hat.tolist(), state.b_hat_s.tolist()
    logs = np.log(
        state.lambda_hat.tolist()
        + state.d_hat.tolist()
        + state.e_hat.tolist()
        + b_s
        + state.c_hat_s.tolist()
    ).tolist()
    return np.array(
        logs[0:3]
        + [state.m_hat, math.log(state.tau_hat), math.log(state.c_hat), math.log(state.b_hat)]
        + logs[3:7]
        + [log_a[0] / b_s[0], log_a[1] / b_s[1]]
        + logs[7:11]
    )


def _unpack(theta) -> VBState:
    """The state of a packed vector of Python floats. The exps of the array
    entries are taken by one ``np.exp`` and are views of its result."""
    positive = np.exp([*theta[0:3], *theta[7:11], *theta[13:17]])
    b_hat_s = positive[7:9]
    b_s = b_hat_s.tolist()
    return VBState(
        lambda_hat=positive[0:3],
        m_hat=theta[3],
        tau_hat=math.exp(theta[4]),
        c_hat=math.exp(theta[5]),
        b_hat=math.exp(theta[6]),
        d_hat=positive[3:5],
        e_hat=positive[5:7],
        log_a_hat=np.array([theta[11] * b_s[0], theta[12] * b_s[1]]),
        b_hat_s=b_hat_s,
        c_hat_s=positive[9:11],
    )


def _evaluate(cache: _DataCache, state: VBState, priors: HyperPriors) -> Point:
    """One E-step pass at ``state`` and the negative free energy there."""
    e = expectations(state, priors)
    stats, lse_total, ndeg = _responsibility_pass(cache, e, priors.families)
    nfe = lse_total - _kl_total(state, priors, e)
    # Expected log-proportions are finite, so a point without a finite
    # log-sum-exp means the expectations overflowed.
    if ndeg or not math.isfinite(nfe):
        raise VBNumericError(f"negative free energy diverged: {nfe}")
    return Point(state, stats, nfe, ndeg, e)


def _step(point: Point, priors: HyperPriors) -> VBState:
    """The coordinate-ascent map F: the state updated from a pass's statistics."""
    return _update_state(point.stats, priors, point.expectations.tau, point.expectations.s)


# The step length is bounded by a cap that starts at 1, grows by this factor
# after an accepted step at the cap and shrinks by it after a rejected one, as
# in the SQUAREM R package (step.max0 = 1, mstep = 4). Without it, a state
# drifting at a near-constant rate gives |r|/|v| in the hundreds, and every
# candidate is rejected.
_STEP_MAX_FACTOR = 4.0


def _step_length(r, v, step_max: float) -> float:
    """SQUAREM step length min(-1, -|r|/|v|), at least -step_max; the exactly
    rounded sums keep it independent of the order of the packed entries.
    FloatingPointError if an entry or a square of r or v overflowed."""
    rr, vv = math.fsum([x * x for x in r]), math.fsum([x * x for x in v])
    if not (math.isfinite(rr) and math.isfinite(vv)):
        raise FloatingPointError(f"SQUAREM differences overflowed: |r|^2={rr}, |v|^2={vv}")
    return max(min(-1.0, -math.sqrt(rr / vv)), -step_max)


def _extrapolated(cache: _DataCache, theta, priors: HyperPriors):
    """The SQUAREM candidate: F(theta') and the pass at it for its NFE.

    ``theta`` is theta' packed as a list of floats, and a pass at it gives
    the statistics for F, without the objective, which nothing reads at
    theta'; or it is the point of the pass already made at theta' = theta2.
    Returns the candidate, or None if theta' is not finite, the pass at it
    has degenerate points or any part fails numerically (an error or a
    floating-point warning). The kernel counts the passes made, so a
    candidate that fails before a pass is charged for none.
    """
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            if isinstance(theta, Point):
                stats, e = theta.stats, theta.expectations
            else:
                if not all(map(math.isfinite, theta)):
                    return None
                e = expectations(_unpack(theta), priors)
                # The pass feeds only F(theta'), so it takes no objective.
                stats, _, ndeg = _responsibility_pass(cache, e, priors.families, objective=False)
                if ndeg:
                    return None
            return _evaluate(cache, _update_state(stats, priors, e.tau, e.s), priors)
    except (VBNumericError, ValueError, ArithmeticError):
        return None


def _cycle(cache: _DataCache, p0: Point, priors: HyperPriors, step_max: float, room: int):
    """One SQUAREM cycle (Varadhan & Roland 2008) from the recorded point p0,
    in at most ``room`` E-step passes, the passes left to the fit. Returns
    the chosen point and the step cap for the next cycle; the kernel counts
    the passes (``estep.passes_made``).

    A plain step takes theta0 (p0's state) to theta1 = F(theta0), with a pass
    for its NFE; theta2 = F(theta1) comes from theta1's statistics without a
    pass. On the packed states, r = theta1 - theta0, v = theta2 - 2 theta1 +
    theta0, the step length alpha (``_step_length``) gives theta' = theta0 -
    2 alpha r + alpha**2 v, and the candidate is F(theta'). Three shapes:

    - alpha = -1: theta' is theta2, whose pass (the second plain step) comes
      first; the candidate is kept if its NFE is at least theta2's. 3 passes.
    - The candidate clears the bar, NFE(theta1) >= NFE(theta0) and its NFE
      >= 2 NFE(theta1) - NFE(theta0), where two plain steps land if their
      gains do not grow: it is kept without the pass at theta2. 3 passes.
    - Otherwise the pass at theta2 is made, and the candidate is kept only if
      its NFE is at least theta2's. 4 passes.

    A candidate that fails numerically is never kept, and makes fewer passes
    when it fails before its last. At alpha = -step_max the cap grows by
    ``_STEP_MAX_FACTOR`` if the candidate is kept and shrinks by it (not
    below 1) if not. With room for 1 pass the cycle is theta1 alone; with
    room for fewer than 4, or no finite step length, it is two plain steps
    and the cap stays.
    """
    p1 = _evaluate(cache, _step(p0, priors), priors)
    if room == 1:
        return p1, step_max
    theta2 = _step(p1, priors)
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            t0, t1, t2 = _pack(p0.params).tolist(), _pack(p1.params).tolist(), _pack(theta2).tolist()
            r = [b - a for a, b in zip(t0, t1)]
            v = [c - 2.0 * b + a for a, b, c in zip(t0, t1, t2)]
            alpha = _step_length(r, v, step_max)
    except (ValueError, ArithmeticError):
        alpha = None
    if room < 4 or alpha is None:
        return _evaluate(cache, theta2, priors), step_max
    if alpha == -1.0:
        p2 = _evaluate(cache, theta2, priors)
        candidate = _extrapolated(cache, p2, priors)
    else:
        # An overflowing theta' is rejected by _extrapolated, before any pass.
        two_alpha, alpha_sq = 2.0 * alpha, alpha * alpha
        theta = [a - two_alpha * b + alpha_sq * c for a, b, c in zip(t0, r, v)]
        candidate = _extrapolated(cache, theta, priors)
        p2 = None
        if not (
            candidate is not None
            and p1.objective >= p0.objective
            and candidate.objective >= 2.0 * p1.objective - p0.objective
        ):
            p2 = _evaluate(cache, theta2, priors)
    kept = candidate is not None and (p2 is None or candidate.objective >= p2.objective)
    if alpha == -step_max:
        step_max = step_max * _STEP_MAX_FACTOR if kept else max(1.0, step_max / _STEP_MAX_FACTOR)
    return (candidate if kept else p2), step_max


def _fit_vb(data, families, cfg: VBFitConfig) -> VBFitResult:
    """Coordinate ascent from the k-means start in SQUAREM cycles (``_cycle``),
    whose step cap is kept here, one per fit, from 1 at the first point: a
    fit that drops its binned level starts its direct cycles from a cap of 1
    again. The full level after a binned level takes plain steps, which
    leave the cap as it is. ``fitloop.fit`` records a cycle's point only if
    its NFE does not fall."""
    priors = default_hyperpriors(*families)
    step_cap = 1.0

    def first(cache, init):
        nonlocal step_cap
        step_cap = 1.0
        # The start's pass runs through this module's name for the kernel,
        # ``_responsibility_pass``, so that it is traced like every other.
        # The start's tau and shapes are the E[tau] and E[s] of the first
        # update, and the pass feeds only that update: it takes no objective.
        with np.errstate(divide="ignore", invalid="ignore"):
            e = point_coefficients(init)
            stats = _responsibility_pass(cache, e, families, objective=False)[0]
        return _evaluate(cache, _update_state(stats, priors, e.tau, e.s), priors)

    def cycle(cache, recorded, room):
        nonlocal step_cap
        point, step_cap = _cycle(cache, recorded, priors, step_cap, room)
        return point

    last, trace, common = fitloop.fit(
        data, None, initialization.kmeans_params, cfg, families, first, cycle,
        ascent_only=True, binned=True,
    )
    return VBFitResult(
        state=last.params, expectations=last.expectations, nfe_trace=trace, priors=priors, **common
    )


def fit_bggm(data, cfg: VBFitConfig | None = None) -> VBFitResult:
    """Variational Bayes fit with Gamma activation components (model bGGM)."""
    return _fit_vb(data, FAMILIES["gamma"], cfg or VBFitConfig())


def fit_bgim(data, cfg: VBFitConfig | None = None) -> VBFitResult:
    """Variational Bayes fit with inverse-Gamma activation components (model bGIM)."""
    return _fit_vb(data, FAMILIES["invgamma"], cfg or VBFitConfig())
