"""The noise-core start of the ML fitters: ``robust_scale`` and ``core_params``.

The core is the Gaussian at the median with the MAD as its scale; only the
samples beyond three scales of it start as activation. These tests pin the
scale on masked and tied data, its exact power-of-two equivariance, the
fallbacks of a side without spread and of data without a scale, and, on the
hostile inputs of the k-means properties, that the core start accepts every
input the k-means start accepts.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kmeans_properties import continuous_data, exact_data, tie_runs

from gigmix.distributions import (
    GAMMA_NEG,
    GAMMA_POS,
    INVGAMMA_NEG,
    INVGAMMA_POS,
    mom_gamma,
    mom_invgamma,
)
from gigmix.initialization import core_params, kmeans_params, robust_scale

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

FAMILIES = {"gamma": (GAMMA_POS, GAMMA_NEG), "invgamma": (INVGAMMA_POS, INVGAMMA_NEG)}


def _same(a, b):
    return a.pi.tolist() == b.pi.tolist() and (a.comp1, a.comp2, a.comp3) == (b.comp1, b.comp2, b.comp3)


def _mad(v):
    return 1.4826 * float(np.median(np.abs(v - np.median(v))))


def test_scale_is_the_mad_of_gaussian_data():
    x = np.random.default_rng(0).normal(0.5, 2.0, 10_000)
    assert robust_scale(x) == _mad(x)
    assert robust_scale(x) == pytest.approx(2.0, rel=0.03)


def test_scale_of_mostly_zero_data_is_the_mad_of_the_nonzero_values():
    # 60 % exact zeros, as in a masked map: the MAD of all values is 0.
    x = np.random.default_rng(1).normal(0.0, 2.0, 1000)
    x[:600] = 0.0
    assert _mad(x) == 0.0
    assert robust_scale(x) == _mad(x[x != 0.0])
    assert robust_scale(x) == pytest.approx(2.0, rel=0.15)
    # Median 3, absolute deviations 2, 1, 0, 1, 2.
    assert robust_scale([0.0] * 995 + [1.0, 2.0, 3.0, 4.0, 5.0]) == 1.4826


@pytest.mark.parametrize(
    "values",
    [
        [3.0] * 7,  # constant
        [0.0] * 5,
        [1.0, 2.0, 1.0, 2.0],  # two values, whose MAD is positive
        [0.0] * 995 + [1.0, 1.0, 1.0, 2.0, 3.0],  # the nonzero MAD is 0 too
        [-1.0, 2.0],
        [],
    ],
)
def test_no_scale_is_none(values):
    assert robust_scale(values) is None


@SETTINGS
@given(
    st.one_of(exact_data(max_size=300, scales=(1.0, -1.0, 0.125)), continuous_data(max_n=1000, scales=(1.0,))),
    st.integers(-500, 500),
)
def test_power_of_two_scaling_scales_the_scale_exactly(x, k):
    scale = robust_scale(x)
    scaled = robust_scale(np.ldexp(x, k))
    assert scaled == (None if scale is None else np.ldexp(scale, k))


def _accepts_what_kmeans_accepts(x, kind):
    families = FAMILIES[kind]
    with warnings.catch_warnings():
        # Fewer than three distinct values make k-means warn.
        warnings.simplefilter("ignore")
        try:
            kmeans = kmeans_params(x, families)
        except ValueError:
            return
        p = core_params(x, families)
        mirrored = core_params(-x, families)
    if _same(p, kmeans):
        # Only data without a scale, or at scales where the core's moments
        # may leave the floating-point range, fall back to k-means.
        size = np.max(np.abs(x))
        assert robust_scale(x) is None or not 1e-100 < size < 1e100
        return
    # The Gaussian at the median with precision 1 / scale**2, and pi the
    # shares beyond three scales.
    center, scale = float(np.median(x)), robust_scale(x)
    assert (p.comp1.mu, p.comp1.tau) == (center, 1.0 / (scale * scale))
    beyond = [int(np.sum(x > center + 3.0 * scale)), int(np.sum(x < center - 3.0 * scale))]
    assert p.pi.tolist() == [(x.size - sum(beyond)) / x.size, beyond[0] / x.size, beyond[1] / x.size]
    # Mirrored data mirror the start exactly.
    assert mirrored.pi.tolist() == [p.pi[0], p.pi[2], p.pi[1]]
    assert (mirrored.comp1.mu, mirrored.comp1.tau) == (-p.comp1.mu, p.comp1.tau)
    assert (mirrored.comp2.shape, mirrored.comp2.rate) == (p.comp3.shape, p.comp3.rate)
    assert (mirrored.comp3.shape, mirrored.comp3.rate) == (p.comp2.shape, p.comp2.rate)


@SETTINGS
@given(exact_data(max_size=300), st.sampled_from(sorted(FAMILIES)))
def test_core_accepts_tied_data_that_kmeans_accepts(x, kind):
    _accepts_what_kmeans_accepts(x, kind)


@SETTINGS
@given(continuous_data(max_n=1000), st.sampled_from(sorted(FAMILIES)))
def test_core_accepts_heavy_tails_and_extreme_scales_that_kmeans_accepts(x, kind):
    _accepts_what_kmeans_accepts(x, kind)


@SETTINGS
@given(tie_runs(), st.sampled_from(sorted(FAMILIES)))
def test_core_accepts_tie_runs_that_kmeans_accepts(x, kind):
    _accepts_what_kmeans_accepts(x, kind)


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_a_side_without_spread_takes_the_fallback_moments(kind):
    # The value counts of tools/fit_equivalence.py's hostile/ties map (400
    # rounded N(0, 4) draws). Median 0 and scale 1.4826, so the core ends at
    # +-4.45: the upper side holds six 5.0s, with no spread, and takes the
    # fallback moments (10, 10); the lower side holds three -5.0s and one -6.0.
    values = np.arange(-6.0, 6.0)
    x = np.repeat(values, [1, 3, 16, 22, 54, 79, 72, 63, 46, 27, 11, 6])
    p = core_params(x, FAMILIES[kind])
    mom = mom_gamma if kind == "gamma" else mom_invgamma
    lower = np.array([5.0, 5.0, 5.0, 6.0])
    assert p.comp2 == mom(10.0, 10.0, sign=1)
    assert p.comp3 == mom(float(lower.mean()), float(lower.var()), sign=-1)
    assert p.pi.tolist() == [390 / 400, 6 / 400, 4 / 400]
    assert (p.comp1.mu, p.comp1.tau) == (0.0, 1.0 / 1.4826**2)


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_a_side_with_fewer_than_three_samples_takes_the_fallback_moments(kind):
    x = np.concatenate([np.linspace(-1.0, 1.0, 101), [20.0, 30.0]])
    p = core_params(x, FAMILIES[kind])
    mom = mom_gamma if kind == "gamma" else mom_invgamma
    assert (p.comp2, p.comp3) == (mom(10.0, 10.0, sign=1), mom(10.0, 10.0, sign=-1))
    assert p.pi.tolist() == [101 / 103, 2 / 103, 0.0]


@pytest.mark.parametrize(
    "values",
    [[3.0] * 7, [1.0, 2.0, 1.0, 2.0, 1.0, 2.0], [0.0] * 95 + [1.0, 1.0, 1.0, 2.0, 3.0]],
)
def test_without_a_scale_the_start_is_the_kmeans_one(values):
    x = np.asarray(values)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert _same(core_params(x, FAMILIES["gamma"]), kmeans_params(x, FAMILIES["gamma"]))


def test_beyond_the_float_range_the_start_is_the_kmeans_one():
    # At 1e-156 the precision 1 / scale**2 overflows; k-means floors its
    # variances at 1e-6.
    x = np.random.default_rng(5).normal(size=200) * 1e-156
    assert 1.0 / robust_scale(x) ** 2 == np.inf
    assert _same(core_params(x, FAMILIES["gamma"]), kmeans_params(x, FAMILIES["gamma"]))


def test_noise_core_of_pure_noise_is_nearly_all_noise():
    # On N(0, 1) about 0.13 % of the samples lie beyond 3 scales per side;
    # the k-means start makes about a third of the map each activation side.
    x = np.random.default_rng(7).normal(size=100_000)
    p = core_params(x, FAMILIES["gamma"])
    assert p.pi[0] > 0.995
    assert p.comp1.mu == pytest.approx(0.0, abs=0.01)
    assert p.comp1.tau == pytest.approx(1.0, rel=0.02)
    assert kmeans_params(x, FAMILIES["gamma"]).pi[0] < 0.5
