import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.optimize import brentq, minimize_scalar
from scipy.special import gammaln, polygamma, psi
from scipy.stats import dirichlet as dirichlet_dist
from scipy.stats import gamma as gamma_dist
from scipy.stats import norm as norm_dist
from helpers import split_plain_step

from gigmix import estep, vb_em
from gigmix.distributions import (
    GAMMA_NEG,
    GAMMA_POS,
    INVGAMMA_NEG,
    INVGAMMA_POS,
    GaussianParams,
)
from gigmix.experiments import SyntheticSpec, generate
from gigmix.vb_em import (
    ExpectationCache,
    VBFitConfig,
    VBState,
    default_hyperpriors,
    expectations,
    fit_bggm,
    fit_bgim,
    negative_free_energy,
    sufficient_stats,
    update_mu,
    update_pi,
    update_r,
    update_responsibilities,
    update_shape,
    update_tau,
)

GAMMA_FAMS = (GAMMA_POS, GAMMA_NEG)
INVGAMMA_FAMS = (INVGAMMA_POS, INVGAMMA_NEG)


def prior_state(priors) -> VBState:
    return VBState(
        lambda_hat=np.full(3, priors.lambda0),
        m_hat=priors.m0,
        tau_hat=priors.tau0,
        c_hat=priors.c0_tau,
        b_hat=priors.b0_tau,
        d_hat=np.array(priors.d0),
        e_hat=np.array(priors.e0),
        log_a_hat=np.array(priors.log_a0),
        b_hat_s=np.array(priors.b0_s),
        c_hat_s=np.array(priors.c0_s),
    )


def make_cache(families=GAMMA_FAMS, **overrides) -> ExpectationCache:
    values = dict(
        pi=np.array([0.5, 0.25, 0.25]),
        log_pi=np.log([0.5, 0.25, 0.25]),
        mu=0.1,
        mu2=0.15,
        tau=0.9,
        log_tau=math.log(0.9) - 0.05,
        r=np.array([0.9, 1.2]),
        log_r=np.array([math.log(0.9) - 0.1, math.log(1.2) - 0.08]),
        s=np.array([8.0, 11.0]),
        log_gamma_s=np.array([gammaln(8.0) + 0.01, gammaln(11.0) + 0.01]),
    )
    values.update(overrides)
    return ExpectationCache(**values)


def synthetic(seed=0, n=10000, pi=(0.8, 0.1, 0.1), snr=5.0):
    rng = np.random.default_rng(seed)
    labels = rng.choice(3, size=n, p=list(pi))
    return rng.normal(np.array([0.0, snr, -snr])[labels], 1.0)


def frozen_gamma(data, seed=0):
    """A fixed responsibility matrix respecting the support signs."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.05, 1.0, (data.size, 3))
    raw[data <= 0, 1] = 0.0
    raw[data >= 0, 2] = 0.0
    return raw / raw.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# hyper-priors


def test_default_hyperpriors_gamma_block():
    pr = default_hyperpriors(*GAMMA_FAMS)
    assert pr.lambda0 == 5.0
    assert (pr.m0, pr.tau0, pr.c0_tau, pr.b0_tau) == (0.0, 1.0, 0.01, 100.0)
    assert pr.s0[0] == 10.0 and pr.r0[0] == 1.0
    assert pr.d0[0] == 1.0 and pr.e0[0] == 1.0
    b0_expected = 1.0 / (10.0 * polygamma(1, 10.0))
    assert pr.b0_s[0] == pytest.approx(b0_expected, rel=1e-12)
    assert pr.c0_s[0] == pr.b0_s[0]
    assert pr.log_a0[0] == pytest.approx(b0_expected * psi(10.0), rel=1e-12)


def test_default_hyperpriors_invgamma_block():
    pr = default_hyperpriors(*INVGAMMA_FAMS)
    assert pr.s0[0] == 12.0 and pr.r0[0] == 110.0
    assert pr.d0[0] == 110.0 and pr.e0[0] == 1.0
    b0 = 1.0 / (12.0 * polygamma(1, 12.0))
    assert pr.b0_s[0] == pytest.approx(b0, rel=1e-12)
    assert pr.log_a0[0] == pytest.approx(-b0 * psi(12.0) + b0 * math.log(110.0), rel=1e-12)


def test_default_hyperpriors_prior_laplace_mean_is_s0():
    # The construction centers the shape functional so that the Laplace mean
    # evaluated at log r = log r0 recovers s0 exactly.
    for fams, k_exp in ((GAMMA_FAMS, 10.0), (INVGAMMA_FAMS, 12.0)):
        pr = default_hyperpriors(*fams)
        sign = 1.0 if fams[0].kind == "gamma" else -1.0
        arg = (sign * pr.log_a0[0] + pr.c0_s[0] * math.log(pr.r0[0])) / pr.b0_s[0]
        assert arg == pytest.approx(psi(k_exp), rel=1e-12)


def _replaced_priors(**changes):
    return dataclasses.replace(default_hyperpriors(*GAMMA_FAMS), **changes)


@pytest.mark.parametrize("m0", [math.nan, math.inf, -math.inf])
def test_hyperpriors_refuse_a_mean_prior_that_is_not_finite(m0):
    # update_mu returned NaN from such a prior without a word.
    with pytest.raises(ValueError, match="m0"):
        _replaced_priors(m0=m0)


@pytest.mark.parametrize("log_a0", [(math.nan, 1.0), (1.0, math.inf), (-math.inf, 1.0)])
def test_hyperpriors_refuse_a_shape_functional_that_is_not_finite(log_a0):
    with pytest.raises(ValueError, match="log_a0"):
        _replaced_priors(log_a0=log_a0)


@pytest.mark.parametrize("field", ["s0", "r0"])
@pytest.mark.parametrize("value", [(math.nan, 1.0), (1.0, math.inf), (0.0, 1.0), (1.0, -2.0)])
def test_hyperpriors_refuse_a_shape_or_rate_that_is_not_finite_and_positive(field, value):
    with pytest.raises(ValueError, match=field):
        _replaced_priors(**{field: value})


@pytest.mark.parametrize(
    "families",
    [
        (GAMMA_NEG, GAMMA_POS),
        (GAMMA_POS, GAMMA_POS),
        (INVGAMMA_POS,),
        (GAMMA_POS, GAMMA_NEG, GAMMA_NEG),
        (GaussianParams(0.0, 1.0), GAMMA_NEG),
    ],
)
def test_hyperpriors_refuse_families_that_are_not_positive_then_negative(families):
    with pytest.raises(ValueError, match="families"):
        _replaced_priors(families=families)


def test_default_hyperpriors_pass_the_checks_unchanged():
    for fams in (GAMMA_FAMS, INVGAMMA_FAMS):
        pr = default_hyperpriors(*fams)
        assert dataclasses.replace(pr) == pr


# ---------------------------------------------------------------------------
# conjugate updates


def test_update_pi_examples():
    pr = default_hyperpriors(*GAMMA_FAMS)
    stats = sufficient_stats(np.array([1.0]), np.array([[1.0, 0.0, 0.0]]))
    stats.n = np.array([10.0, 0.0, 0.0])
    assert np.allclose(update_pi(stats, pr), [15.0, 5.0, 5.0])
    stats.n = np.zeros(3)
    assert np.allclose(update_pi(stats, pr), [5.0, 5.0, 5.0])


def test_update_pi_additivity():
    pr = default_hyperpriors(*GAMMA_FAMS)
    data = synthetic(seed=1, n=200)
    stats = sufficient_stats(data, frozen_gamma(data, 1))
    lam = update_pi(stats, pr)
    assert lam.sum() == pytest.approx(3 * pr.lambda0 + data.size, rel=1e-12)


def test_update_mu_prior_recovery_and_flat_limit():
    pr = default_hyperpriors(*GAMMA_FAMS)
    empty = sufficient_stats(np.array([1.0]), np.array([[0.0, 1.0, 0.0]]))
    m, t = update_mu(empty, pr, e_tau=0.7)
    assert (m, t) == (pr.m0, pr.tau0)

    data = synthetic(seed=2, n=300)
    gamma = frozen_gamma(data, 2)
    stats = sufficient_stats(data, gamma)
    flat = dataclasses.replace(pr, tau0=1e-12)
    m, _ = update_mu(stats, flat, e_tau=1.0)
    assert m == pytest.approx(stats.xbar[0] / stats.n[0], rel=1e-9)


def test_update_mu_matches_formula():
    pr = default_hyperpriors(*GAMMA_FAMS)
    data = synthetic(seed=3, n=150)
    gamma = frozen_gamma(data, 3)
    stats = sufficient_stats(data, gamma)
    e_tau = 1.37
    m, t = update_mu(stats, pr, e_tau)
    n1 = float(gamma[:, 0].sum())
    xbar1 = float(gamma[:, 0] @ data)
    assert t == pytest.approx(pr.tau0 + e_tau * n1, rel=1e-12)
    assert m == pytest.approx((pr.tau0 * pr.m0 + e_tau * xbar1) / t, rel=1e-12)


def test_update_tau_prior_recovery_and_reduction():
    pr = default_hyperpriors(*GAMMA_FAMS)
    data = np.array([0.5, -0.2, 1.1])
    c, b = update_tau(data, np.zeros((3, 3)), pr, e_mu=0.0, e_mu2=0.0)
    assert (c, b) == (pr.c0_tau, pr.b0_tau)

    gamma = np.tile([1.0, 0.0, 0.0], (3, 1))
    c, b = update_tau(data, gamma, pr, e_mu=0.0, e_mu2=0.0)
    assert c == pytest.approx(pr.c0_tau + 1.5, rel=1e-12)
    assert b == pytest.approx(1.0 / (1.0 / pr.b0_tau + 0.5 * np.sum(data**2)), rel=1e-12)


def test_update_tau_matches_formula():
    pr = default_hyperpriors(*GAMMA_FAMS)
    data = synthetic(seed=4, n=120)
    gamma = frozen_gamma(data, 4)
    e_mu, e_mu2 = 0.2, 0.3
    c, b = update_tau(data, gamma, pr, e_mu, e_mu2)
    quadsum = float(np.sum(gamma[:, 0] * (data**2 + e_mu2 - 2.0 * data * e_mu)))
    assert c == pytest.approx(pr.c0_tau + 0.5 * gamma[:, 0].sum(), rel=1e-12)
    assert b == pytest.approx(1.0 / (1.0 / pr.b0_tau + 0.5 * quadsum), rel=1e-12)


def _tau(data, gamma):
    return update_tau(data, gamma, default_hyperpriors(*GAMMA_FAMS), e_mu=0.0, e_mu2=0.0)


@pytest.mark.parametrize("statistic", [sufficient_stats, _tau], ids=["sufficient_stats", "update_tau"])
def test_statistics_reject_non_finite_data_and_misshapen_gamma(statistic):
    data, gamma = np.array([0.5, 1.0, -1.0]), np.tile([0.5, 0.25, 0.25], (3, 1))
    statistic(data, gamma)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            statistic(np.array([bad, 1.0, -1.0]), gamma)
    for misshapen in (gamma[:, :2], gamma[:2], gamma.ravel()):
        with pytest.raises(ValueError, match="shape"):
            statistic(data, misshapen)


def test_update_r_prior_recovery_and_positivity():
    for fams in (GAMMA_FAMS, INVGAMMA_FAMS):
        pr = default_hyperpriors(*fams)
        empty = sufficient_stats(np.array([1.0]), np.array([[1.0, 0.0, 0.0]]))
        d, e = update_r(empty, pr, e_s=np.array([4.0, 4.0]))
        assert np.allclose(d, pr.d0) and np.allclose(e, pr.e0)

        data = synthetic(seed=5, n=100)
        stats = sufficient_stats(data, frozen_gamma(data, 5))
        d, e = update_r(stats, pr, e_s=np.array([4.0, 6.0]))
        assert np.all(d / e > 0)


def test_update_r_uses_family_conjugate_statistic():
    data = synthetic(seed=6, n=80)
    gamma = frozen_gamma(data, 6)
    stats = sufficient_stats(data, gamma)
    e_s = np.array([3.0, 7.0])

    pr = default_hyperpriors(*GAMMA_FAMS)
    d, e = update_r(stats, pr, e_s)
    pos, neg = data > 0, data < 0
    assert d[0] == pytest.approx(pr.d0[0] + 3.0 * gamma[:, 1].sum(), rel=1e-12)
    assert e[0] == pytest.approx(pr.e0[0] + gamma[pos, 1] @ data[pos], rel=1e-12)
    assert e[1] == pytest.approx(pr.e0[1] + gamma[neg, 2] @ (-data[neg]), rel=1e-12)

    pri = default_hyperpriors(*INVGAMMA_FAMS)
    d, e = update_r(stats, pri, e_s)
    assert e[0] == pytest.approx(pri.e0[0] + gamma[pos, 1] @ (1.0 / data[pos]), rel=1e-12)
    assert e[1] == pytest.approx(pri.e0[1] + gamma[neg, 2] @ (1.0 / -data[neg]), rel=1e-12)


def test_update_shape_prior_recovery_and_log_accumulation():
    pr = default_hyperpriors(*GAMMA_FAMS)
    empty = sufficient_stats(np.array([1.0]), np.array([[1.0, 0.0, 0.0]]))
    la, b, c = update_shape(empty, pr)
    assert np.allclose(la, pr.log_a0)
    assert np.allclose(b, pr.b0_s)
    assert np.allclose(c, pr.c0_s)

    # One point at x = 1 with full responsibility: log 1 adds nothing.
    one = sufficient_stats(np.array([1.0]), np.array([[0.0, 1.0, 0.0]]))
    la, b, c = update_shape(one, pr)
    assert la[0] == pytest.approx(pr.log_a0[0], abs=1e-15)
    assert b[0] == pytest.approx(pr.b0_s[0] + 1.0, rel=1e-12)

    data = synthetic(seed=7, n=90)
    gamma = frozen_gamma(data, 7)
    stats = sufficient_stats(data, gamma)
    la, b, c = update_shape(stats, pr)
    pos = data > 0
    assert la[0] == pytest.approx(
        pr.log_a0[0] + gamma[pos, 1] @ np.log(data[pos]), rel=1e-12
    )
    assert np.allclose(b, np.asarray(pr.b0_s) + stats.n[1:])
    assert np.allclose(c, np.asarray(pr.c0_s) + stats.n[1:])


# ---------------------------------------------------------------------------
# responsibilities


def test_update_responsibilities_support_rule():
    e = make_cache()
    gamma, stats = update_responsibilities(
        np.array([-2.0, -0.1, 0.0, 0.4, 3.0]), e, GAMMA_FAMS
    )
    assert np.all(gamma[:2, 1] == 0.0)
    assert np.all(gamma[3:, 2] == 0.0)
    assert gamma[2, 0] == 1.0
    assert np.allclose(gamma.sum(axis=1), 1.0, atol=1e-12)
    assert stats.n.sum() == pytest.approx(4.0, rel=1e-12)


def _log_rho_reference(x, e, families):
    """Direct scalar evaluation of the stated responsibility formulas."""
    out = np.full(3, -np.inf)
    out[0] = (
        e.log_pi[0]
        + 0.5 * e.log_tau
        - 0.5 * math.log(2 * math.pi)
        - 0.5 * (x * x - 2 * x * e.mu + e.mu2) * e.tau
    )
    for k, fam in enumerate(families):
        z = fam.sign * x
        if z <= 0:
            continue
        if fam.kind == "gamma":
            out[k + 1] = (
                e.log_pi[k + 1]
                + (e.s[k] - 1.0) * math.log(z)
                + e.s[k] * e.log_r[k]
                - e.log_gamma_s[k]
                - e.r[k] * z
            )
        else:
            out[k + 1] = (
                e.log_pi[k + 1]
                - (e.s[k] + 1.0) * math.log(z)
                + e.s[k] * e.log_r[k]
                - e.log_gamma_s[k]
                - e.r[k] / z
            )
    return out


@pytest.mark.parametrize("families", [GAMMA_FAMS, INVGAMMA_FAMS])
def test_update_responsibilities_matches_stated_formulas(families):
    e = make_cache(families)
    data = np.array([0.8, -1.3, 2.4])
    gamma, _ = update_responsibilities(data, e, families)
    for i, x in enumerate(data):
        lr = _log_rho_reference(float(x), e, families)
        rho = np.exp(lr - lr.max())
        expect = rho / rho.sum()
        assert np.allclose(gamma[i], expect, atol=1e-12)


def test_update_responsibilities_gaussian_dominates_near_zero():
    e = make_cache(s=np.array([8.0, 11.0]))
    gamma, _ = update_responsibilities(np.array([1e-6, -1e-6]), e, GAMMA_FAMS)
    assert gamma[0, 0] > 1.0 - 1e-12
    assert gamma[1, 0] > 1.0 - 1e-12


def test_update_responsibilities_stats_match_direct_sums():
    e = make_cache()
    data = synthetic(seed=8, n=50)
    gamma, stats = update_responsibilities(data, e, GAMMA_FAMS)
    pos, neg = data > 0, data < 0
    assert np.allclose(stats.n, gamma.sum(axis=0), atol=1e-12)
    assert np.allclose(stats.xbar, gamma.T @ data, atol=1e-10)
    assert stats.sxx1 == pytest.approx(float(gamma[:, 0] @ data**2), rel=1e-12)
    assert stats.log_x[0] == pytest.approx(gamma[pos, 1] @ np.log(data[pos]), rel=1e-10)
    assert stats.recip_x[1] == pytest.approx(gamma[neg, 2] @ (1.0 / -data[neg]), rel=1e-10)


# ---------------------------------------------------------------------------
# expectations


def test_expectations_symmetric_dirichlet():
    pr = default_hyperpriors(*GAMMA_FAMS)
    st = prior_state(pr)
    st.lambda_hat = np.ones(3)
    e = expectations(st, pr)
    assert np.allclose(e.pi, 1.0 / 3.0)
    assert np.allclose(e.log_pi, psi(1.0) - psi(3.0))


def test_expectations_standard_formulas():
    pr = default_hyperpriors(*GAMMA_FAMS)
    st = prior_state(pr)
    st.lambda_hat = np.array([7.0, 2.0, 4.0])
    st.m_hat, st.tau_hat = 0.3, 2.0
    st.c_hat, st.b_hat = 3.0, 0.5
    st.d_hat = np.array([4.0, 6.0])
    st.e_hat = np.array([2.0, 3.0])
    e = expectations(st, pr)
    assert e.mu == 0.3
    assert e.mu2 == pytest.approx(0.09 + 0.5, rel=1e-12)
    assert e.tau == pytest.approx(1.5, rel=1e-12)
    assert e.log_tau == pytest.approx(psi(3.0) + math.log(0.5), rel=1e-12)
    assert np.allclose(e.r, [2.0, 2.0])
    assert e.log_r[0] == pytest.approx(psi(4.0) - math.log(2.0), rel=1e-12)
    assert np.allclose(e.log_pi, psi(st.lambda_hat) - psi(13.0))


def test_expectations_fresh_prior_shape_value():
    # At the fresh prior the Laplace argument is psi(s0) + (c0/b0)(<log r> - log r0)
    # with <log r> = psi(d0) - log e0; the independent oracle solves psi(s) = arg.
    for fams, s0, r0 in ((GAMMA_FAMS, 10.0, 1.0), (INVGAMMA_FAMS, 12.0, 110.0)):
        pr = default_hyperpriors(*fams)
        e = expectations(prior_state(pr), pr)
        arg = psi(s0) + (psi(r0) - math.log(r0))
        expected = brentq(lambda s: psi(s) - arg, 1e-6, 1e4, xtol=1e-13)
        assert e.s[0] == pytest.approx(expected, rel=1e-9)
        assert e.s[1] == pytest.approx(expected, rel=1e-9)


def test_expectations_shape_round_trip_when_log_r_matches_r0():
    # Construct the rate posterior so that <log r> = log r0 exactly; the
    # prior-construction round trip then returns s0 = 10 exactly.
    pr = default_hyperpriors(*GAMMA_FAMS)
    st = prior_state(pr)
    st.d_hat = np.array([2.0, 2.0])
    st.e_hat = np.exp([psi(2.0), psi(2.0)])  # log r0 = log 1 = 0
    e = expectations(st, pr)
    assert np.allclose(e.s, 10.0, atol=1e-8)


def test_expectations_taylor_log_gamma_vs_monte_carlo():
    # Laplace posterior N(10, 1/(10 trigamma(10))); Monte-Carlo oracle.
    pr = default_hyperpriors(*GAMMA_FAMS)
    st = prior_state(pr)
    st.d_hat = np.array([2.0, 2.0])
    st.e_hat = np.exp([psi(2.0), psi(2.0)])
    st.log_a_hat = np.full(2, 10.0 * psi(10.0))
    st.b_hat_s = np.full(2, 10.0)
    st.c_hat_s = np.full(2, 10.0)
    e = expectations(st, pr)
    assert e.s[0] == pytest.approx(10.0, abs=1e-8)

    rng = np.random.default_rng(17)
    sigma = 1.0 / math.sqrt(10.0 * polygamma(1, 10.0))
    draws = rng.normal(10.0, sigma, 1_000_000)
    mc = float(np.mean(gammaln(draws)))
    assert abs(e.log_gamma_s[0] - mc) / abs(mc) < 0.01


def _quadrature_shape_mean(log_a, b, c, log_r, kind):
    sign = 1.0 if kind == "gamma" else -1.0

    def logq(s):
        return (sign * s - 1.0) * log_a + s * c * log_r - b * gammaln(s)

    mode = minimize_scalar(lambda s: -logq(s), bounds=(1e-6, 1e4), method="bounded").x
    peak = logq(mode)
    hi = mode * 20.0 + 50.0
    num = quad(lambda s: s * math.exp(logq(s) - peak), 1e-12, hi, points=[mode], limit=500)[0]
    den = quad(lambda s: math.exp(logq(s) - peak), 1e-12, hi, points=[mode], limit=500)[0]
    return num / den


@pytest.mark.parametrize("kind", ["gamma", "invgamma"])
def test_laplace_shape_mean_vs_quadrature(kind):
    rng = np.random.default_rng(23)
    fams = GAMMA_FAMS if kind == "gamma" else INVGAMMA_FAMS
    pr = default_hyperpriors(*fams)
    sign = 1.0 if kind == "gamma" else -1.0
    for _ in range(8):
        b = rng.uniform(5.0, 200.0)
        c = b * rng.uniform(0.5, 1.5)
        log_r = rng.uniform(-1.0, 2.0)
        target = rng.uniform(0.8, 30.0)
        log_a = sign * (b * psi(target) - c * log_r)
        st = prior_state(pr)
        st.log_a_hat = np.full(2, log_a)
        st.b_hat_s = np.full(2, b)
        st.c_hat_s = np.full(2, c)
        st.d_hat = np.array([2.0, 2.0])
        st.e_hat = np.exp([psi(2.0) - log_r, psi(2.0) - log_r])  # <log r> = log_r
        e = expectations(st, pr)
        oracle = _quadrature_shape_mean(log_a, b, c, log_r, kind)
        assert abs(e.s[0] - oracle) / oracle < 0.05


# ---------------------------------------------------------------------------
# negative free energy


def test_nfe_kl_terms_vanish_at_prior():
    for fams in (GAMMA_FAMS, INVGAMMA_FAMS):
        pr = default_hyperpriors(*fams)
        st = prior_state(pr)
        e = expectations(st, pr)
        data = np.array([0.4, -0.7, 1.2, 2.0])
        gamma, _ = update_responsibilities(data, e, fams)
        nfe = negative_free_energy(data, gamma, st, pr, e)
        coupled = 0.0
        for i, x in enumerate(data):
            lr = _log_rho_reference(float(x), e, fams)
            for k in range(3):
                if gamma[i, k] > 0:
                    coupled += gamma[i, k] * (lr[k] - math.log(gamma[i, k]))
        # All five KL terms are zero at prior = posterior.
        assert nfe == pytest.approx(coupled, abs=1e-10)


def test_nfe_validates_data_and_gamma_like_sufficient_stats():
    pr = default_hyperpriors(*GAMMA_FAMS)
    st = prior_state(pr)
    e = expectations(st, pr)
    data = np.array([0.4, -0.7, 1.2, 2.0])
    gamma, _ = update_responsibilities(data, e, GAMMA_FAMS)
    bad_data = data.copy()
    bad_data[1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        negative_free_energy(bad_data, gamma, st, pr, e)
    for bad_gamma in (gamma[:, :2], gamma[:3], gamma.ravel()):
        with pytest.raises(ValueError, match=r"gamma must have shape \(4, 3\)"):
            negative_free_energy(data, bad_gamma, st, pr, e)
    # A valid call accepts the data and gamma as lists.
    want = negative_free_energy(data, gamma, st, pr, e)
    assert negative_free_energy(data.tolist(), gamma.tolist(), st, pr, e) == want


def test_nfe_entropy_zero_for_one_hot_rows():
    pr = default_hyperpriors(*GAMMA_FAMS)
    st = prior_state(pr)
    e = expectations(st, pr)
    data = np.array([0.5, -0.8, 1.5])
    gamma = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    nfe = negative_free_energy(data, gamma, st, pr, e)
    expect = sum(
        _log_rho_reference(float(x), e, GAMMA_FAMS)[k]
        for x, k in zip(data, (1, 2, 0))
    )
    assert nfe == pytest.approx(expect, abs=1e-10)


def _kl_quad(q_pdf, q_logpdf, p_logpdf, lo, hi, points=None):
    val, _ = quad(
        lambda t: q_pdf(t) * (q_logpdf(t) - p_logpdf(t)),
        lo,
        hi,
        limit=400,
        points=points,
        epsabs=1e-12,
        epsrel=1e-12,
    )
    return val


def _oracle_kl_terms(state, priors, e):
    """Numeric re-derivation of every KL term via quadrature."""
    # Dirichlet: 2-D integral over the simplex interior.
    lam_q = state.lambda_hat
    lam_p = np.full(3, priors.lambda0)

    def dir_integrand(p2, p1):
        p3 = 1.0 - p1 - p2
        if p3 <= 1e-12:
            return 0.0
        vec = [p1, p2, p3]
        lq = dirichlet_dist.logpdf(vec, lam_q)
        lp = dirichlet_dist.logpdf(vec, lam_p)
        return math.exp(lq) * (lq - lp)

    kl_pi = dblquad(
        dir_integrand, 0.0, 1.0, 0.0, lambda p1: 1.0 - p1, epsabs=1e-10, epsrel=1e-10
    )[0]

    q_mu = norm_dist(loc=state.m_hat, scale=1.0 / math.sqrt(state.tau_hat))
    p_mu = norm_dist(loc=priors.m0, scale=1.0 / math.sqrt(priors.tau0))
    kl_mu = _kl_quad(q_mu.pdf, q_mu.logpdf, p_mu.logpdf, -np.inf, np.inf)

    q_tau = gamma_dist(a=state.c_hat, scale=state.b_hat)
    p_tau = gamma_dist(a=priors.c0_tau, scale=priors.b0_tau)
    kl_tau = _kl_quad(q_tau.pdf, q_tau.logpdf, p_tau.logpdf, 0.0, np.inf)

    kl_r = 0.0
    for k in range(2):
        q_r = gamma_dist(a=state.d_hat[k], scale=1.0 / state.e_hat[k])
        p_r = gamma_dist(a=priors.d0[k], scale=1.0 / priors.e0[k])
        kl_r += _kl_quad(q_r.pdf, q_r.logpdf, p_r.logpdf, 0.0, np.inf)

    kl_s = 0.0
    for k, fam in enumerate(priors.families):
        sign = 1.0 if fam.kind == "gamma" else -1.0
        mu_q = float(e.s[k])
        prec_q = float(state.b_hat_s[k]) * polygamma(1, mu_q)
        arg = (sign * priors.log_a0[k] + priors.c0_s[k] * e.log_r[k]) / priors.b0_s[k]
        mu_p = brentq(lambda s: psi(s) - arg, 1e-8, 1e5, xtol=1e-13)
        prec_p = priors.b0_s[k] * polygamma(1, mu_p)
        q_s = norm_dist(loc=mu_q, scale=1.0 / math.sqrt(prec_q))
        p_s = norm_dist(loc=mu_p, scale=1.0 / math.sqrt(prec_p))
        kl_s += _kl_quad(q_s.pdf, q_s.logpdf, p_s.logpdf, -np.inf, np.inf)
    return kl_pi + kl_mu + kl_tau + kl_r + kl_s


@pytest.mark.parametrize("fams", [GAMMA_FAMS, INVGAMMA_FAMS])
def test_nfe_matches_term_by_term_oracle(fams):
    pr = default_hyperpriors(*fams)
    data = np.array(
        [0.6, -0.4, 1.8, 2.3, -1.1, 0.2, 3.4, -2.2, 0.9, -0.5, 1.2, 4.0]
    )
    e0 = make_cache(fams)
    gamma, stats = update_responsibilities(data, e0, fams)
    lam = update_pi(stats, pr)
    m_hat, tau_hat = update_mu(stats, pr, e_tau=e0.tau)
    c_hat, b_hat = update_tau(data, gamma, pr, m_hat, m_hat**2 + 1.0 / tau_hat)
    d_hat, e_hat = update_r(stats, pr, e0.s)
    log_a, b_s, c_s = update_shape(stats, pr)
    st = VBState(lam, m_hat, tau_hat, c_hat, b_hat, d_hat, e_hat, log_a, b_s, c_s)
    e = expectations(st, pr)

    nfe = negative_free_energy(data, gamma, st, pr, e)

    coupled = 0.0
    for i, x in enumerate(data):
        lr = _log_rho_reference(float(x), e, fams)
        for k in range(3):
            if gamma[i, k] > 0:
                coupled += gamma[i, k] * (lr[k] - math.log(gamma[i, k]))
    oracle = coupled - _oracle_kl_terms(st, pr, e)
    assert nfe == pytest.approx(oracle, abs=1e-8)


def test_nfe_rejects_inconsistent_shapes():
    pr = default_hyperpriors(*GAMMA_FAMS)
    st = prior_state(pr)
    e = expectations(st, pr)
    data = np.array([0.5, 1.0])
    gamma = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    # one-hot on the Gaussian: finite value expected, sanity check only
    assert math.isfinite(negative_free_energy(data, gamma, st, pr, e))


# ---------------------------------------------------------------------------
# full fits


def test_fit_recovers_proportions_and_monotone_nfe():
    data = synthetic(seed=31)
    for fitter in (fit_bggm, fit_bgim):
        res = fitter(data, VBFitConfig(seed=2))
        assert res.converged
        assert np.allclose(res.expectations.pi, [0.8, 0.1, 0.1], atol=0.03)
        diffs = np.diff(res.nfe_trace)
        slack = 1e-6 * (1.0 + np.abs(res.nfe_trace[:-1]))
        assert np.all(diffs >= -slack)
        assert res.state.lambda_hat.sum() == pytest.approx(
            3 * 5.0 + data.size, rel=1e-12
        )
        gamma = res.responsibilities
        assert np.allclose(gamma.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(gamma[data <= 0, 1] == 0.0)
        assert np.all(gamma[data >= 0, 2] == 0.0)


def test_fit_bgim_collapses_on_pure_noise():
    rng = np.random.default_rng(33)
    data = rng.normal(0.0, 1.0, 10000)
    res = fit_bgim(data, VBFitConfig(seed=3))
    assert res.expectations.pi[0] >= 0.9


def test_fit_bggm_pure_noise_is_stable():
    # Gamma activations tile a pure Gaussian (documented dense behavior);
    # the fit must still converge cleanly with finite monotone NFE.
    rng = np.random.default_rng(33)
    data = rng.normal(0.0, 1.0, 10000)
    res = fit_bggm(data, VBFitConfig(seed=3))
    assert res.converged
    assert np.all(np.isfinite(res.nfe_trace))
    assert res.expectations.pi.sum() == pytest.approx(1.0, rel=1e-12)


def test_fit_deterministic_given_seed():
    data = synthetic(seed=35, n=4000)
    a = fit_bgim(data, VBFitConfig(seed=9))
    b = fit_bgim(data, VBFitConfig(seed=9))
    assert np.array_equal(a.nfe_trace, b.nfe_trace)
    assert np.array_equal(a.responsibilities, b.responsibilities)
    assert np.array_equal(a.state.lambda_hat, b.state.lambda_hat)
    assert np.array_equal(a.expectations.s, b.expectations.s)


def test_fit_expectations_stay_finite_and_positive():
    data = synthetic(seed=36, n=3000, pi=(0.9, 0.05, 0.05), snr=3.0)
    for fitter in (fit_bggm, fit_bgim):
        res = fitter(data, VBFitConfig(seed=1))
        e = res.expectations
        assert np.all(np.isfinite(e.log_pi)) and np.all(e.pi > 0)
        assert e.tau > 0 and np.all(e.r > 0) and np.all(e.s > 0)
        assert e.mu2 >= e.mu**2
        assert np.all(np.isfinite(e.log_gamma_s))


def test_fit_trace_matches_public_nfe_op():
    # The fused in-loop NFE must agree with the general operator evaluated
    # at the matching (gamma, state, expectations) triple.
    data = synthetic(seed=37, n=800)
    res = fit_bggm(data, VBFitConfig(seed=4))
    value = negative_free_energy(
        data, res.responsibilities, res.state, res.priors, res.expectations
    )
    assert value == pytest.approx(res.nfe_trace[-1], rel=1e-12)


def test_overflowing_extrapolation_is_rejected_quietly(monkeypatch):
    # A step length of -1e150 sends the extrapolated state far out of range:
    # unpacking it overflows. Every candidate must be rejected without a
    # warning escaping, and the fit must still finish on its plain steps.
    outcomes = []
    original = vb_em._extrapolated

    def recorded(*args):
        outcome = original(*args)
        outcomes.append(outcome)
        return outcome

    monkeypatch.setattr(vb_em, "_step_length", lambda r, v, step_max: -1e150)
    monkeypatch.setattr(vb_em, "_extrapolated", recorded)
    data = synthetic(seed=38, n=2000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = fit_bgim(data, VBFitConfig(seed=5))
    assert outcomes and all(c is None for c in outcomes)
    assert res.stop_reason in ("tolerance", "no_ascent")
    assert np.all(np.isfinite(res.responsibilities))
    value = negative_free_energy(
        data, res.responsibilities, res.state, res.priors, res.expectations
    )
    assert value == pytest.approx(res.nfe_trace[-1], rel=1e-12)


# Overflows forced into every fresh SQUAREM candidate (one made by unpacking
# theta'), by the stage where they happen, with the kernel passes the
# candidate has made when it is rejected there: in expectations at theta',
# the Dirichlet total, the rate ratio r = d_hat / e_hat and the Taylor term of
# E[log Gamma(s)] (inf / inf at a shape mean near 1e-298); in the update, the
# rate posterior's shape d_hat = d0 + E[s] n; in expectations at F(theta'),
# the Dirichlet total again, after the pass at theta' and before the one at
# F(theta').
FORCED_OVERFLOWS = {
    "lambda_total": 0, "rate_ratio": 0, "shape_taylor": 0, "rate_shape_update": 1, "next_lambda_total": 1
}


def _fit_with_candidates(monkeypatch, fitter, data, change=None, reject=None):
    """Fit with each fresh SQUAREM candidate either changed so that it
    overflows at ``change``, or rejected outright after ``reject`` passes (0,
    or 1 for the pass at theta', made by the real kernel). Returns the
    result, the outcome of each fresh candidate with the kernel passes it
    made, and the kernel passes of the whole fit."""
    outcomes, fresh_pass, fresh_state, kernel_calls = [], [], [], []
    unpack, kernel, extrapolated = vb_em._unpack, vb_em._responsibility_pass, vb_em._extrapolated
    expectations_of = vb_em.expectations

    def unpacked(theta):
        state = unpack(theta)
        if change == "lambda_total":
            state.lambda_hat = np.full(3, 1e308)
        elif change == "rate_ratio":
            # d/e is about 1e310, while log r stays near 714 and, with
            # c_hat_s half of b_hat_s, the shape means finite.
            state.d_hat, state.e_hat = np.full(2, 1e300), np.full(2, 1e-10)
            state.c_hat_s = 0.5 * state.b_hat_s
        elif change == "shape_taylor":
            # log r near -2.3 times c_hat_s = 1e300 puts the Laplace argument
            # near -1e297, whose root is near 1e-298.
            state.e_hat = 10.0 * state.d_hat
            state.c_hat_s = np.full(2, 1e300)
        elif change in ("rate_shape_update", "next_lambda_total"):
            fresh_pass.append(change)
        return state

    def kernel_pass(*args, **kwargs):
        kernel_calls.append(True)
        stats, lse, degenerate = kernel(*args, **kwargs)
        fresh = fresh_pass.pop() if fresh_pass else None
        if fresh == "rate_shape_update":
            stats.n[1:] = np.finfo(float).max  # E[s] n overflows for E[s] > 1
        elif fresh == "next_lambda_total" and not degenerate:
            fresh_state.append(True)  # the next expectations are F(theta')'s
        return stats, lse, degenerate

    def expectations(state, priors):
        if fresh_state and fresh_state.pop():
            state = dataclasses.replace(state, lambda_hat=np.full(3, 1e308))
        return expectations_of(state, priors)

    def candidate(cache, theta, priors):
        if isinstance(theta, vb_em.Point):
            return extrapolated(cache, theta, priors)
        before = len(kernel_calls)
        if reject is None:
            outcome = extrapolated(cache, theta, priors)
        else:
            outcome = None
            if reject:
                kernel_pass(cache, expectations(unpack(theta), priors), priors.families, objective=False)
        outcomes.append((outcome, len(kernel_calls) - before))
        return outcome

    monkeypatch.setattr(vb_em, "_unpack", unpacked)
    monkeypatch.setattr(vb_em, "_responsibility_pass", kernel_pass)
    monkeypatch.setattr(vb_em, "expectations", expectations)
    monkeypatch.setattr(vb_em, "_extrapolated", candidate)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = fitter(data, VBFitConfig())
    monkeypatch.undo()
    return res, outcomes, len(kernel_calls)


def _fit_bytes(res):
    arrays = [res.responsibilities, res.nfe_trace]
    arrays += [getattr(res.state, f) for f in res.state.__dataclass_fields__]
    arrays += [getattr(res.expectations, f) for f in res.expectations.__dataclass_fields__]
    return res.iterations, res.stop_reason, [np.asarray(a).tobytes() for a in arrays]


@pytest.mark.parametrize("change", sorted(FORCED_OVERFLOWS))
@pytest.mark.parametrize("fitter", [fit_bggm, fit_bgim])
def test_candidate_overflowing_in_its_scalar_work_is_rejected(monkeypatch, fitter, change):
    # The scalar work of expectations runs on Python floats, which overflow
    # to inf without a word, where numpy scalars raised under _extrapolated's
    # error state (the updates still run on numpy scalars). Each forced
    # overflow must reject its candidate after the kernel passes it made
    # before the overflow, and the fit must be the one that rejects those
    # candidates outright after the same passes. The fit counts exactly the
    # kernel passes it made, the start's two as one: a candidate whose
    # F(theta') fails is charged for the pass at theta' alone.
    data = synthetic(seed=38, n=2000)
    passes = FORCED_OVERFLOWS[change]
    res, outcomes, kernel_passes = _fit_with_candidates(monkeypatch, fitter, data, change=change)
    want, rejected, _ = _fit_with_candidates(monkeypatch, fitter, data, reject=passes)
    assert outcomes and outcomes == [(None, passes)] * len(outcomes)
    assert len(rejected) == len(outcomes)
    assert res.iterations == kernel_passes - 1
    assert _fit_bytes(res) == _fit_bytes(want)


def test_kl_takes_shared_values_only_for_their_state_and_cache():
    # expectations leaves digamma(d_hat), digamma(c_hat) and trigamma(E[s])
    # for the KL. They are the values the KL computes itself, bit for bit,
    # and are taken only with the state and the cache they were made for.
    pr = default_hyperpriors(*GAMMA_FAMS)
    st = dataclasses.replace(prior_state(pr), d_hat=np.array([3.0, 4.0]), c_hat=2.0)
    e = expectations(st, pr)
    shared = vb_em._kl_total(st, pr, e)
    assert shared == vb_em._kl_total(st, pr, dataclasses.replace(e))
    other = dataclasses.replace(st, d_hat=np.array([5.0, 6.0]), c_hat=3.0)
    assert vb_em._kl_total(other, pr, e) == vb_em._kl_total(other, pr, dataclasses.replace(e))
    assert vb_em._kl_total(other, pr, e) != shared


@pytest.mark.parametrize("fitter", [fit_bggm, fit_bgim])
def test_a_fit_leaves_the_module_namespace_unchanged(fitter):
    # What a pass computes travels with the pass: no fit binds a module name.
    before = dict(vars(vb_em))
    fitter(synthetic(seed=4, n=2000))
    after = vars(vb_em)
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []


def test_expectations_refuse_an_overflowing_rate_mean():
    # d_hat / e_hat is about 1e310, while log r stays near 714 and, with
    # c_hat_s half of b_hat_s, the shape means finite: the one overflow
    # raises VBNumericError whatever the floating-point error state, and
    # without a warning on the way.
    pr = default_hyperpriors(*GAMMA_FAMS)
    base = prior_state(pr)
    st = dataclasses.replace(
        base, d_hat=np.full(2, 1e300), e_hat=np.full(2, 1e-10), c_hat_s=0.5 * base.b_hat_s
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(vb_em.VBNumericError, match=r"E\[r\]"):
            expectations(st, pr)
        with np.errstate(over="raise"), pytest.raises(vb_em.VBNumericError):
            expectations(st, pr)


def test_step_length_refuses_overflowing_differences():
    # Squares past the float range: numpy's r * r raised here before.
    with pytest.raises(FloatingPointError):
        vb_em._step_length([1e200, 1.0], [1.0, 1.0], 4.0)
    with pytest.raises(FloatingPointError):
        vb_em._step_length([1.0], [float("inf")], 4.0)
    assert vb_em._step_length([3.0, 4.0], [1.0], 100.0) == -5.0


def _logged_cycles(monkeypatch, fitter, data, seed, fall=0.0):
    """Fit and log every SQUAREM cycle: the kernel passes it made, its step
    length and the NFEs of theta0, theta1 and the candidate. ``fall`` is
    taken off the NFE of each cycle's first point. Returns the fit, every
    cycle and the extrapolating ones.

    Only ``_cycle``, the kernel and ``_evaluate`` are wrapped. The step length
    is recomputed from the cycle's inputs, and the candidate is the point the
    cycle evaluated after theta1 that is not theta2 = F(theta1)."""
    cycles, log = [], {"kernel": 0, "points": None}
    cycle, evaluate, kernel = vb_em._cycle, vb_em._evaluate, vb_em._responsibility_pass

    def counted(*args, **kwargs):
        log["kernel"] += 1
        return kernel(*args, **kwargs)

    def evaluated(*args):
        point = evaluate(*args)
        if log["points"] is not None:
            if not log["points"]:  # theta1, the cycle's first point
                point.objective -= fall
            log["points"].append(point)
        return point

    def logged(cache, p0, priors, step_max, room):
        log.update(kernel=0, points=[])
        point, cap = cycle(cache, p0, priors, step_max, room)
        (p1, *later), log["points"] = log["points"], None
        t0, t1, t2 = (vb_em._pack(s) for s in (p0.params, p1.params, vb_em._step(p1, priors)))
        c = dict(passes=log["kernel"], nfe0=p0.objective, nfe1=p1.objective)
        if room >= 4:
            c["alpha"] = vb_em._step_length(t1 - t0, t2 - 2.0 * t1 + t0, step_max)
        c["candidate"] = next(
            (p for p in later if not np.array_equal(vb_em._pack(p.params), t2)), None
        )
        cycles.append(c)
        return point, cap

    monkeypatch.setattr(vb_em, "_cycle", logged)
    monkeypatch.setattr(vb_em, "_responsibility_pass", counted)
    monkeypatch.setattr(vb_em, "_evaluate", evaluated)
    res = fitter(data, VBFitConfig(seed=seed))
    # Cycles that extrapolated with a step length other than -1 and got a candidate.
    return res, cycles, [c for c in cycles if c.get("alpha", -1.0) != -1.0 and c["candidate"]]


def _clears_bar(c) -> bool:
    return c["nfe1"] >= c["nfe0"] and c["candidate"].objective >= 2.0 * c["nfe1"] - c["nfe0"]


@pytest.mark.parametrize("fitter", [fit_bggm, fit_bgim])
def test_cycle_skips_the_second_plain_pass_only_when_the_candidate_clears_the_bar(
    fitter, monkeypatch
):
    data = synthetic(seed=36, n=3000, pi=(0.9, 0.05, 0.05), snr=3.0)
    res, cycles, extrapolating = _logged_cycles(monkeypatch, fitter, data, 2)
    # The fit counts its cycles' kernel passes and one for the start.
    assert res.iterations == 1 + sum(c["passes"] for c in cycles)
    # A step length of -1 makes theta2's pass first, for theta' = theta2.
    assert all(c["passes"] == 3 for c in cycles if c.get("alpha") == -1.0)
    assert all(c["passes"] == (3 if _clears_bar(c) else 4) for c in extrapolating)
    assert {c["passes"] for c in extrapolating} == {3, 4}


def test_cycle_never_skips_after_a_plain_step_whose_nfe_fell(monkeypatch):
    # Every first plain step is made to lose 1e6 nats: every candidate then
    # clears the bar 2 NFE(theta1) - NFE(theta0), and none may skip theta2.
    data = synthetic(seed=36, n=3000, pi=(0.9, 0.05, 0.05), snr=3.0)
    res, cycles, extrapolating = _logged_cycles(monkeypatch, fit_bgim, data, 2, fall=1e6)
    assert extrapolating
    assert res.iterations == 1 + sum(c["passes"] for c in cycles)
    for c in extrapolating:
        assert c["nfe1"] < c["nfe0"]
        assert c["candidate"].objective >= 2.0 * c["nfe1"] - c["nfe0"]
        assert c["passes"] == 4


# ROADMAP item 14(a): plain steps from each returned state on four dataset-1
# maps (SNR, sparsity; n = 4000, data seed 3), and on six hostile maps, split
# in two halves (``helpers.split_plain_step``).
SPLIT_MAPS = ((5.0, 1), (3.0, 2), (2.0, 1), (4.0, 3))
SPLIT_STEPS = 60


def _split_steps(maps):
    """Per fit of each (name, values) map and per step: the NFE before it,
    after its first half and after the whole step."""
    steps = {}
    for name, x in maps:
        for fitter in (fit_bggm, fit_bgim):
            res = fitter(x)
            cache = estep._DataCache(x, res.priors.families)
            point = vb_em._evaluate(cache, res.state, res.priors)
            rows = steps[f"{fitter.__name__} {name}"] = []
            for _ in range(SPLIT_STEPS):
                half, after = split_plain_step(cache, point, res.priors)
                rows.append((point.objective, half, after.objective))
                point = after
    return steps


@pytest.fixture(scope="module")
def split_steps():
    return _split_steps(
        (
            f"snr{snr} sp{sparsity}",
            generate(SyntheticSpec(dataset=1, snr=snr, sparsity=sparsity, n=4000, seed=3), 0).values,
        )
        for snr, sparsity in SPLIT_MAPS
    )


@pytest.fixture(scope="module")
def hostile_split_steps():
    # tools/fit_equivalence.py's hostile maps without exact zeros, drawn in
    # its order from the same generator, and a negative exponential.
    rng = np.random.default_rng(2024)
    mixture = rng.normal(rng.choice([-3.0, 0.0, 3.0], 500, p=[0.1, 0.8, 0.1]), 1.0)
    return _split_steps(
        [
            ("n3", np.array([-1.0, 0.5, 2.0])),
            ("ties", np.round(rng.normal(0.0, 2.0, 400))),
            ("lognormal", rng.lognormal(0.0, 1.5, 500)),
            ("cauchy", rng.standard_cauchy(500)),
            ("negative exponential", -rng.exponential(1.0, 500)),
            ("mixture x 1e-150", mixture * 1e-150),
        ]
    )


def _falls(steps, before, after):
    """The steps whose NFE fell from ``before`` to ``after`` (positions in a
    step's row) by more than 1e-9 (1 + |NFE|), with the fall."""
    return [
        (name, i, row[before] - row[after])
        for name, rows in steps.items()
        for i, row in enumerate(rows)
        if row[after] < row[before] - 1e-9 * (1.0 + abs(row[before]))
    ]


def test_split_step_first_half_never_lowers_the_nfe(split_steps):
    # The Z, pi, mu, tau and r updates with q(s) held are exact coordinate
    # ascents of the NFE.
    assert _falls(split_steps, 0, 1) == []


def test_split_step_first_half_never_lowers_the_nfe_on_hostile_maps(hostile_split_steps):
    assert _falls(hostile_split_steps, 0, 1) == []


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 14: the Laplace-read shape update lowers the NFE, in 286 of these 480 "
    "steps and by up to 0.34 nats",
)
def test_split_step_shape_half_never_lowers_the_nfe(split_steps):
    assert _falls(split_steps, 1, 2) == []


@pytest.mark.parametrize("seed", [0, 11])
def test_bgim_converges_on_the_cost_ordering_map(seed):
    # Criterion 10's scenario at n = 1e5: the plain coordinate ascent gained
    # only 1-2 % less per pass here and ran into its 500-pass cap.
    spec = SyntheticSpec(dataset=1, snr=2.0, sparsity=1, n=100_000, repeats=1, seed=10)
    res = fit_bgim(generate(spec, 0, 0).values, VBFitConfig(seed=seed))
    assert res.stop_reason == "tolerance"
    assert res.converged
    assert res.iterations <= 200


def test_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_bggm(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        fit_bgim(np.array([1.0, np.nan, 0.5, 2.0]))
    with pytest.raises(ValueError):
        VBFitConfig(max_iterations=0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_extrapolated_refuses_a_theta_that_is_not_finite_without_a_pass(value, monkeypatch):
    priors = default_hyperpriors(*GAMMA_FAMS)
    cache = estep._DataCache(np.array([-1.0, 0.5, 2.0]), GAMMA_FAMS)
    passes = []
    monkeypatch.setattr(vb_em, "_responsibility_pass", lambda *args, **kwargs: passes.append(args))
    theta = vb_em._pack(prior_state(priors)).tolist()
    theta[3] = value  # m_hat
    assert vb_em._extrapolated(cache, theta, priors) is None
    assert passes == []


def test_a_degenerate_point_rejects_the_candidate_and_fails_the_evaluation(monkeypatch):
    # b_hat and c_hat of about 1.5e154 are finite, but their Python-float
    # product E[tau] is inf without a floating-point error, and with E[mu] = 0
    # the kernel's coefficient E[tau] E[mu] is NaN. numpy carries that NaN
    # through the sweep without an error either, so every point is
    # degenerate. A candidate whose pass has a degenerate point is rejected
    # after that pass, and the evaluation at such a state raises.
    priors = default_hyperpriors(*GAMMA_FAMS)
    cache = estep._DataCache(np.array([-1.5, -0.5, 0.25, 1.0, 2.0]), GAMMA_FAMS)
    state = dataclasses.replace(
        prior_state(priors), m_hat=0.0, b_hat=math.exp(355.0), c_hat=math.exp(355.0)
    )
    degenerate, kernel = [], vb_em._responsibility_pass

    def spied(*args, **kwargs):
        out = kernel(*args, **kwargs)
        degenerate.append(out[2])
        return out

    monkeypatch.setattr(vb_em, "_responsibility_pass", spied)
    assert vb_em._extrapolated(cache, vb_em._pack(state).tolist(), priors) is None
    assert degenerate == [5]
    with pytest.raises(vb_em.VBNumericError, match="diverged"):
        vb_em._evaluate(cache, state, priors)
    assert degenerate == [5, 5]
