import math

import numpy as np
import pytest
from scipy.integrate import quad

from gigmix.distributions import (
    FAMILIES,
    GAMMA_NEG,
    GAMMA_POS,
    INVGAMMA_NEG,
    INVGAMMA_POS,
    ComponentFamily,
    GaussianParams,
    MixtureParams,
    ShapeRateParams,
    log_pdf,
    mom_gamma,
    mom_invgamma,
    sample,
)


def test_family_validation():
    with pytest.raises(ValueError):
        ComponentFamily("gaussian", 1)
    with pytest.raises(ValueError):
        ComponentFamily("gamma", 0)
    with pytest.raises(ValueError):
        ComponentFamily("weibull", 1)
    with pytest.raises(TypeError):
        ComponentFamily("gamma")


def test_param_validation():
    with pytest.raises(ValueError):
        GaussianParams(0.0, 0.0)
    with pytest.raises(ValueError):
        ShapeRateParams(-1.0, 1.0, GAMMA_POS)
    with pytest.raises(ValueError):
        ShapeRateParams(1.0, 0.0, INVGAMMA_NEG)


def test_mixture_params_validation():
    c1 = GaussianParams(0.0, 1.0)
    c2 = ShapeRateParams(2.0, 1.0, GAMMA_POS)
    c3 = ShapeRateParams(2.0, 1.0, GAMMA_NEG)
    MixtureParams(np.array([0.8, 0.1, 0.1]), c1, c2, c3)
    with pytest.raises(ValueError):
        MixtureParams(np.array([0.8, 0.3, 0.1]), c1, c2, c3)
    with pytest.raises(ValueError):
        MixtureParams(np.array([0.8, 0.1, 0.1]), c1, c3, c2)


def test_log_pdf_unit_exponential():
    # Gamma(1, 1) is the unit exponential, so log pdf at 1 is exactly -1.
    p = ShapeRateParams(1.0, 1.0, GAMMA_POS)
    assert log_pdf(p, 1.0) == pytest.approx(-1.0, rel=1e-14)


def test_log_pdf_outside_support():
    p = ShapeRateParams(2.0, 3.0, GAMMA_POS)
    assert log_pdf(p, -0.5) == -np.inf
    assert log_pdf(p, 0.0) == -np.inf
    n = ShapeRateParams(2.0, 3.0, GAMMA_NEG)
    assert log_pdf(n, 0.5) == -np.inf
    ig = ShapeRateParams(0.5, 1.0, INVGAMMA_POS)
    assert log_pdf(ig, 0.0) == -np.inf


def test_log_pdf_mirror_identity():
    pos = ShapeRateParams(3.0, 2.0, INVGAMMA_POS)
    neg = ShapeRateParams(3.0, 2.0, INVGAMMA_NEG)
    assert log_pdf(neg, -0.7) == pytest.approx(log_pdf(pos, 0.7), rel=1e-14)
    rng = np.random.default_rng(1)
    xs = rng.uniform(0.01, 20.0, 50)
    gp = ShapeRateParams(1.7, 0.8, GAMMA_POS)
    gn = ShapeRateParams(1.7, 0.8, GAMMA_NEG)
    assert np.allclose(log_pdf(gn, -xs), log_pdf(gp, xs), rtol=1e-14)


def test_log_pdf_gaussian_matches_formula():
    p = GaussianParams(0.3, 2.5)
    x = 1.234
    expect = 0.5 * math.log(2.5 / (2 * math.pi)) - 0.5 * 2.5 * (x - 0.3) ** 2
    assert log_pdf(p, x) == pytest.approx(expect, rel=1e-14)


def test_log_pdf_rejects_non_finite():
    with pytest.raises(ValueError):
        log_pdf(GaussianParams(0.0, 1.0), float("nan"))


@pytest.mark.parametrize("shape", [0.5, 1.0, 2.0, 10.0])
@pytest.mark.parametrize("rate", [0.5, 1.0, 5.0])
def test_densities_integrate_to_one(shape, rate):
    for family in (GAMMA_POS, INVGAMMA_POS):
        p = ShapeRateParams(shape, rate, family)
        total = sum(
            quad(lambda t: math.exp(log_pdf(p, t)), a, b, limit=200)[0]
            for a, b in ((0.0, 1.0), (1.0, np.inf))
        )
        assert total == pytest.approx(1.0, abs=1e-6)


def test_negative_density_integrates_to_one():
    p = ShapeRateParams(2.0, 1.5, GAMMA_NEG)
    total, _ = quad(lambda t: math.exp(log_pdf(p, t)), -np.inf, 0.0, limit=200)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_mom_gamma():
    p = mom_gamma(10.0, 10.0)
    assert (p.shape, p.rate) == (10.0, 1.0)
    p = mom_gamma(1.0, 4.0)
    assert (p.shape, p.rate) == (0.25, 0.25)
    # exact round trip on true moments
    s, r = 3.5, 2.0
    p = mom_gamma(s / r, s / r**2)
    assert p.shape == pytest.approx(s, rel=1e-14)
    assert p.rate == pytest.approx(r, rel=1e-14)


def test_mom_invgamma():
    p = mom_invgamma(10.0, 10.0)
    assert (p.shape, p.rate) == (12.0, 110.0)
    p = mom_invgamma(1.0, 1.0)
    assert (p.shape, p.rate) == (3.0, 2.0)
    # true moments of InverseGamma(5, 8): mean 2, variance 4/3
    p = mom_invgamma(2.0, 4.0 / 3.0)
    assert p.shape == pytest.approx(5.0, rel=1e-13)
    assert p.rate == pytest.approx(8.0, rel=1e-13)


def test_mom_round_trips_random():
    rng = np.random.default_rng(5)
    for _ in range(100):
        s = rng.uniform(0.5, 20.0)
        r = rng.uniform(0.2, 10.0)
        g = mom_gamma(s / r, s / r**2)
        assert abs(g.shape - s) <= 1e-12 * s
        assert abs(g.rate - r) <= 1e-12 * r
        s = rng.uniform(2.5, 20.0)
        mean = r / (s - 1.0)
        var = r**2 / ((s - 1.0) ** 2 * (s - 2.0))
        ig = mom_invgamma(mean, var)
        assert abs(ig.shape - s) <= 1e-12 * s
        assert abs(ig.rate - r) <= 1e-12 * r


def test_mom_rejects_bad_moments():
    for fn in (mom_gamma, mom_invgamma):
        with pytest.raises(ValueError):
            fn(-1.0, 1.0)
        with pytest.raises(ValueError):
            fn(1.0, 0.0)


_ACTIVATIONS = (GAMMA_POS, GAMMA_NEG, INVGAMMA_POS, INVGAMMA_NEG)


@pytest.mark.parametrize("family", _ACTIVATIONS, ids=lambda f: f"{f.kind}{f.sign:+d}")
def test_family_moments_are_the_mom_functions_bit_for_bit(family):
    # The family's own method-of-moments component is what mom_gamma or
    # mom_invgamma gives with its sign, and what their closed forms give.
    mom = mom_invgamma if family.inverse else mom_gamma
    grid = [1e-10, 3e-3, 0.1, 1.0, 2.0 / 3.0, 10.0, 123.456, 1e6]
    for mean in grid:
        for variance in grid:
            got = family.moments(mean, variance)
            assert got == mom(mean, variance, sign=family.sign)
            assert got.family is family
            q = mean * mean / variance
            want = (q + 2.0, mean * (q + 1.0)) if family.inverse else (q, mean / variance)
            assert (got.shape, got.rate) == want
    with pytest.raises(ValueError, match="positive mean and variance"):
        family.moments(1.0, 0.0)


@pytest.mark.parametrize("mom", [mom_gamma, mom_invgamma])
@pytest.mark.parametrize("sign", [0, 2, -2])
def test_mom_functions_refuse_a_sign_other_than_plus_or_minus_one(mom, sign):
    # The family states the sign rule; mom_gamma(1, 1, sign=0) used to give
    # a negative-side component.
    with pytest.raises(ValueError, match="sign"):
        mom(2.0, 1.0, sign=sign)


def test_gaussian_family_has_no_moments():
    # An activation family is a Gamma or an inverse-Gamma on one side of
    # zero; the Gaussian is the noise component, never a family.
    with pytest.raises(ValueError, match="unknown component kind 'gaussian'"):
        ComponentFamily("gaussian", 0)


def test_only_inverse_gamma_families_are_inverse():
    assert [f.inverse for f in _ACTIVATIONS] == [False, False, True, True]


def test_families_name_each_learners_positive_then_negative_family():
    assert FAMILIES == {"gamma": (GAMMA_POS, GAMMA_NEG), "invgamma": (INVGAMMA_POS, INVGAMMA_NEG)}
    for kind, families in FAMILIES.items():
        assert [(f.kind, f.sign) for f in families] == [(kind, 1), (kind, -1)]


def test_sampler_moments():
    rng = np.random.default_rng(11)
    n = 1_000_000
    x = sample(GaussianParams(0.0, 1.0), n, rng)
    assert abs(x.mean()) < 0.01
    assert abs(x.var() - 1.0) < 0.02

    x = sample(ShapeRateParams(10.0, 1.0, GAMMA_POS), n, rng)
    assert x.min() > 0
    assert abs(x.mean() - 10.0) < 0.2
    assert abs(x.var() - 10.0) < 0.2

    x = sample(ShapeRateParams(12.0, 110.0, INVGAMMA_POS), n, rng)
    assert x.min() > 0
    assert abs(x.mean() - 10.0) < 0.2
    assert abs(x.var() - 10.0) < 0.2

    x = sample(ShapeRateParams(4.0, 2.0, GAMMA_NEG), n, rng)
    assert x.max() < 0
    assert abs(x.mean() + 2.0) < 0.04


def test_sampler_deterministic_given_seed():
    a = sample(ShapeRateParams(3.0, 1.0, GAMMA_POS), 100, np.random.default_rng(42))
    b = sample(ShapeRateParams(3.0, 1.0, GAMMA_POS), 100, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_sampler_rejects_bad_n():
    with pytest.raises(ValueError):
        sample(GaussianParams(0.0, 1.0), 0, np.random.default_rng(0))


@pytest.mark.parametrize("n", [2.5, True, "3", np.float64(2.0)])
def test_sampler_refuses_an_n_that_is_not_an_integer(n):
    # int() took these: 2.5 drew 2 values, True 1 and "3" three.
    with pytest.raises(ValueError, match="n must be an integer"):
        sample(GaussianParams(0.0, 1.0), n, np.random.default_rng(0))
    assert sample(GaussianParams(0.0, 1.0), np.int64(3), np.random.default_rng(0)).size == 3
