import math

import numpy as np
import pytest

from gigmix.distributions import (
    GAMMA_NEG,
    GAMMA_POS,
    INVGAMMA_NEG,
    INVGAMMA_POS,
    GaussianParams,
    MixtureParams,
    ShapeRateParams,
    log_pdf,
)
from gigmix import estep, initialization, ml_em, vb_em
from gigmix.estep import sufficient_stats
from gigmix.initialization import init_mixture, kmeans_1d
from gigmix.ml_em import MLFitConfig, e_step, fit_ggm, fit_gim, m_step


def make_params(pi=(0.5, 0.25, 0.25), kind="gamma"):
    pos = GAMMA_POS if kind == "gamma" else INVGAMMA_POS
    neg = GAMMA_NEG if kind == "gamma" else INVGAMMA_NEG
    return MixtureParams(
        np.asarray(pi, dtype=float),
        GaussianParams(0.0, 1.0),
        ShapeRateParams(2.0, 1.0, pos),
        ShapeRateParams(3.0, 2.0, neg),
    )


def synthetic(seed=0, n=10000, pi=(0.8, 0.1, 0.1), snr=5.0):
    rng = np.random.default_rng(seed)
    labels = rng.choice(3, size=n, p=list(pi))
    return rng.normal(np.array([0.0, snr, -snr])[labels], 1.0), labels


def test_e_step_support_zeroing():
    params = make_params()
    gamma = e_step(np.array([-2.0, -0.4, 0.0, 0.3, 2.0]), params)
    assert np.all(gamma[:2, 1] == 0.0)
    assert np.all(gamma[3:, 2] == 0.0)
    assert gamma[2, 0] == 1.0  # exact zero goes to the Gaussian
    assert np.allclose(gamma.sum(axis=1), 1.0, atol=1e-12)


def test_e_step_degenerate_pi_is_pure_gaussian():
    params = make_params(pi=(1.0, 0.0, 0.0))
    gamma = e_step(np.array([-1.0, 0.5, 3.0]), params)
    assert np.array_equal(gamma, np.tile([1.0, 0.0, 0.0], (3, 1)))


def test_a_degenerate_point_counts_in_the_direct_gaussian_sums():
    # Under pi = (0, 1, 0) the Gaussian holds no mass, so its sums are taken
    # directly over its side weights. The point -2.5 has zero density under
    # both components it can belong to: it is degenerate, goes to the
    # Gaussian and counts there with weight 1.
    rng = np.random.default_rng(0)
    x = np.append(rng.gamma(4.0, 1.0, 9999), -2.5)
    params = make_params(pi=(0.0, 1.0, 0.0))
    cache = estep._DataCache(x, params.families)
    stats, _, degenerate, _ = estep.point_pass(cache, params)
    assert degenerate == 1
    assert (stats.n[0], stats.xbar[0], stats.sxx1) == (1.0, -2.5, 6.25)


def test_e_step_matches_direct_density_ratios():
    # Independent oracle: plain density-ratio arithmetic per point.
    params = make_params(pi=(0.5, 0.25, 0.25))
    data = np.array([0.8, -1.3, 2.4])
    gamma = e_step(data, params)
    for i, x in enumerate(data):
        weights = [
            params.pi[0] * math.exp(log_pdf(params.comp1, float(x))),
            params.pi[1] * math.exp(log_pdf(params.comp2, float(x))),
            params.pi[2] * math.exp(log_pdf(params.comp3, float(x))),
        ]
        total = sum(weights)
        for k in range(3):
            assert gamma[i, k] == pytest.approx(weights[k] / total, abs=1e-12)


def test_e_step_rejects_non_finite():
    with pytest.raises(ValueError):
        e_step(np.array([0.1, np.inf]), make_params())


def test_m_step_all_mass_on_gaussian():
    rng = np.random.default_rng(2)
    x = rng.normal(0.4, 1.3, 500)
    gamma = np.tile([1.0, 0.0, 0.0], (500, 1))
    prev = make_params()
    out = m_step(sufficient_stats(x, gamma), prev)
    assert np.allclose(out.pi, [1.0, 0.0, 0.0])
    assert out.comp1.mu == pytest.approx(x.mean(), rel=1e-12)
    assert out.comp1.variance == pytest.approx(x.var(), rel=1e-10)
    # Empty side components keep their previous parameters.
    assert out.comp2 == prev.comp2
    assert out.comp3 == prev.comp3


def test_m_step_invgamma_moment_matching():
    # Two points with weighted mean 10 and variance 10 on component 2.
    a = math.sqrt(10.0)
    x = np.array([10.0 - a, 10.0 + a, -1.0])
    gamma = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    out = m_step(sufficient_stats(x, gamma), make_params(kind="invgamma"))
    assert out.comp2.shape == pytest.approx(12.0, rel=1e-12)
    assert out.comp2.rate == pytest.approx(110.0, rel=1e-12)


def test_m_step_negative_component_uses_mirrored_stats():
    # Data mean -5, variance 1 on component 3: Gamma moments of (5, 1).
    x = np.array([-4.0, -6.0, 0.5])
    gamma = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    out = m_step(sufficient_stats(x, gamma), make_params())
    assert out.comp3.shape == pytest.approx(25.0, rel=1e-12)
    assert out.comp3.rate == pytest.approx(5.0, rel=1e-12)
    assert out.comp3.family is GAMMA_NEG


def test_m_step_pi_stays_on_simplex():
    rng = np.random.default_rng(3)
    x = rng.normal(0, 2, 200)
    raw = rng.uniform(0, 1, (200, 3))
    gamma = raw / raw.sum(axis=1, keepdims=True)
    out = m_step(sufficient_stats(x, gamma), make_params())
    assert out.pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(out.pi >= 0)


def fit_with_init(x, model, seed=0, **cfg_kwargs):
    families = (GAMMA_POS, GAMMA_NEG) if model == "ggm" else (INVGAMMA_POS, INVGAMMA_NEG)
    km = kmeans_1d(x, 3, seed)
    init, _ = init_mixture(x, km, families)
    fitter = fit_ggm if model == "ggm" else fit_gim
    return fitter(x, init, MLFitConfig(seed=seed, **cfg_kwargs))


@pytest.mark.parametrize("model", ["ggm", "gim"])
def test_fit_recovers_proportions_at_high_snr(model):
    x, _ = synthetic(seed=4)
    res = fit_with_init(x, model)
    assert res.converged
    assert np.allclose(res.params.pi, [0.8, 0.1, 0.1], atol=0.03)
    assert res.loglik_trace[-1] >= res.loglik_trace[0]
    assert np.allclose(res.responsibilities.sum(axis=1), 1.0, atol=1e-12)


def test_fit_gim_collapses_on_pure_noise():
    rng = np.random.default_rng(6)
    x = rng.normal(0.0, 1.0, 10000)
    res = fit_with_init(x, "gim", seed=1)
    assert res.params.pi[0] >= 0.95


def test_fit_ggm_pure_noise_is_stable():
    # A Gauss+Gamma mixture tiles a pure Gaussian instead of collapsing
    # (the documented dense-solution behavior); assert a clean finish.
    rng = np.random.default_rng(6)
    x = rng.normal(0.0, 1.0, 10000)
    res = fit_with_init(x, "ggm", seed=1)
    assert res.converged
    assert res.params.pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert res.loglik_trace[-1] >= res.loglik_trace[0]
    assert np.all(np.isfinite(res.loglik_trace))


@pytest.mark.parametrize("model", ["ggm", "gim"])
def test_fit_deterministic_given_seed(model):
    x, _ = synthetic(seed=8, n=4000)
    a = fit_with_init(x, model, seed=3)
    b = fit_with_init(x, model, seed=3)
    assert np.array_equal(a.loglik_trace, b.loglik_trace)
    assert np.array_equal(a.responsibilities, b.responsibilities)
    assert np.array_equal(a.params.pi, b.params.pi)
    assert a.params.comp2 == b.params.comp2


@pytest.mark.parametrize("model", ["ggm", "gim"])
@pytest.mark.parametrize("seed", [0, 1])
def test_fit_without_init_equals_explicit_kmeans_init(model, seed):
    # The name dates from the k-means default. A fit without init now starts
    # from the noise core: it equals the fit from an explicit ``core_params``
    # start, whatever the seed, and differs from the k-means start's fit.
    x, _ = synthetic(seed=11, n=4000, pi=(0.9, 0.07, 0.03), snr=3.0)
    fitter = fit_ggm if model == "ggm" else fit_gim
    families = (GAMMA_POS, GAMMA_NEG) if model == "ggm" else (INVGAMMA_POS, INVGAMMA_NEG)
    own = fitter(x, None, MLFitConfig(seed=seed))
    explicit = fitter(x, initialization.core_params(x, families), MLFitConfig(seed=seed))
    assert np.array_equal(own.responsibilities, explicit.responsibilities)
    assert np.array_equal(own.loglik_trace, explicit.loglik_trace)
    assert np.array_equal(own.params.pi, explicit.params.pi)
    assert (own.params.comp1, own.params.comp2, own.params.comp3) == (
        explicit.params.comp1,
        explicit.params.comp2,
        explicit.params.comp3,
    )
    assert own.iterations == explicit.iterations
    assert not np.array_equal(own.loglik_trace, fit_with_init(x, model, seed).loglik_trace)


def test_fit_family_mismatch_rejected():
    x, _ = synthetic(seed=9, n=1000)
    km = kmeans_1d(x, 3, 0)
    init_gamma, _ = init_mixture(x, km, (GAMMA_POS, GAMMA_NEG))
    with pytest.raises(ValueError):
        fit_gim(x, init_gamma)


def test_support_zeroing_holds_during_fit():
    x, _ = synthetic(seed=10, n=3000)
    res = fit_with_init(x, "ggm")
    gamma = res.responsibilities
    assert np.all(gamma[x <= 0, 1] == 0.0)
    assert np.all(gamma[x >= 0, 2] == 0.0)


def test_pi_recovery_with_frozen_true_components():
    # With component parameters frozen at the generating truth and only pi
    # re-estimated, pi converges within CLT range of the true proportions.
    true = MixtureParams(
        np.array([0.7, 0.2, 0.1]),
        GaussianParams(0.0, 1.0),
        ShapeRateParams(25.0, 5.0, GAMMA_POS),  # mean 5, var 1
        ShapeRateParams(25.0, 5.0, GAMMA_NEG),
    )
    rng = np.random.default_rng(12)
    n = 20000
    labels = rng.choice(3, size=n, p=true.pi)
    x = np.where(
        labels == 0,
        rng.normal(0, 1, n),
        np.where(labels == 1, rng.gamma(25.0, 1 / 5.0, n), -rng.gamma(25.0, 1 / 5.0, n)),
    )
    params = MixtureParams(np.array([1 / 3, 1 / 3, 1 / 3]), true.comp1, true.comp2, true.comp3)
    for _ in range(100):
        gamma = e_step(x, params)
        pi = gamma.sum(axis=0) / n
        params = MixtureParams(pi, true.comp1, true.comp2, true.comp3)
    # a few sigma of binomial noise at n = 20000
    assert np.allclose(params.pi, true.pi, atol=4.0 * np.sqrt(0.2 * 0.8 / n) + 0.01)


def test_config_validation():
    with pytest.raises(ValueError):
        MLFitConfig(max_iterations=0)
    with pytest.raises(ValueError):
        MLFitConfig(rel_tolerance=0.0)


@pytest.mark.parametrize("model", ["ggm", "gim"])
def test_fit_runs_one_kernel_pass_per_iteration(model, monkeypatch):
    # The k-means start gives parameters only; every E-step is an iteration.
    calls = []
    kernel = estep._responsibility_pass

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    for module in (estep, initialization, ml_em, vb_em):
        if hasattr(module, "_responsibility_pass"):
            monkeypatch.setattr(module, "_responsibility_pass", counted)
    x, _ = synthetic(seed=11, n=4000, pi=(0.9, 0.07, 0.03), snr=3.0)
    fitter = fit_ggm if model == "ggm" else fit_gim
    res = fitter(x, None, MLFitConfig(seed=0))
    assert res.iterations > 1
    assert len(calls) == res.iterations


def test_m_step_from_kernel_stats_equals_m_step_from_gamma():
    x, _ = synthetic(seed=13, n=3000)
    params = make_params()
    cache = estep._DataCache(x)
    stats, _, _, e = estep.point_pass(cache, params)
    from_stats = m_step(stats, params)
    from_gamma = m_step(sufficient_stats(x, estep.responsibilities_at(cache, e, params.families)), params)
    assert np.allclose(from_stats.pi, from_gamma.pi, rtol=1e-12, atol=0.0)
    for a, b in ((from_stats.comp1.mu, from_gamma.comp1.mu), (from_stats.comp1.tau, from_gamma.comp1.tau)):
        assert a == pytest.approx(b, rel=1e-10)
    for a, b in ((from_stats.comp2, from_gamma.comp2), (from_stats.comp3, from_gamma.comp3)):
        assert a.shape == pytest.approx(b.shape, rel=1e-10)
        assert a.rate == pytest.approx(b.rate, rel=1e-10)
