"""Property tests: the shared E-step kernel under point estimates (the ML
E-step) against a dense oracle.

The oracle builds the full N x 3 matrix of log pi_k + log p_k(x) from
``scipy.stats`` (norm, gamma, invgamma; -inf off the support and for a zero
proportion), hands rows with zero density under every component to the
Gaussian, and leaves them out of the log-likelihood. The inputs are hostile:
proportions with exact zeros, exact-zero data, one-sided data, n = 3, and
scales of 1e+-150 with parameters scaled to match. The kernel sweeps each side
in blocks; a block length of 7 makes every case cross block boundaries.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp
from scipy.stats import gamma as gamma_dist
from scipy.stats import invgamma as invgamma_dist
from scipy.stats import norm as norm_dist

from gigmix import estep
from gigmix.distributions import (
    GAMMA_NEG,
    GAMMA_POS,
    INVGAMMA_NEG,
    INVGAMMA_POS,
    GaussianParams,
    MixtureParams,
    ShapeRateParams,
)
from gigmix.estep import _assemble_gamma, _DataCache
from gigmix.ml_em import _e_step

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)
TOL = 1e-10


def oracle(x, params):
    """Responsibilities, log-likelihood and degenerate-row count, dense."""
    lw = np.full((x.size, 3), -np.inf)
    with np.errstate(divide="ignore"):
        log_pi = np.log(params.pi)
        g = params.comp1
        lw[:, 0] = log_pi[0] + norm_dist.logpdf(x, g.mu, 1.0 / math.sqrt(g.tau))
        for k, comp in ((1, params.comp2), (2, params.comp3)):
            z = comp.family.sign * x
            on = z > 0
            if comp.family.kind == "gamma":
                dens = gamma_dist.logpdf(z[on], comp.shape, scale=1.0 / comp.rate)
            else:
                dens = invgamma_dist.logpdf(z[on], comp.shape, scale=comp.rate)
            lw[on, k] = log_pi[k] + dens
    lse = logsumexp(lw, axis=1)
    bad = ~np.isfinite(lse)
    gamma = np.zeros_like(lw)
    gamma[~bad] = np.exp(lw[~bad] - lse[~bad, None])
    gamma[bad] = (1.0, 0.0, 0.0)
    return gamma, float(lse[~bad].sum()), int(bad.sum())


@st.composite
def proportions(draw):
    """Points on the simplex, some with one or two exact zeros."""
    w = np.array([draw(st.sampled_from((0.0, 0.05, 0.3, 1.0, 3.0))) for _ in range(3)])
    if w.sum() == 0:
        w[draw(st.integers(0, 2))] = 1.0
    return w / w.sum()


@st.composite
def case(draw):
    """(data, parameters) at one scale; parameters scaled with the data."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from((1.0, 1e150, 1e-150)))
    kind = draw(st.sampled_from(("gamma", "invgamma")))
    n = draw(st.sampled_from((3, 10, 200)))
    side = draw(st.sampled_from(("both", "positive", "negative")))
    x = rng.normal(0.0, 1.0, n) + rng.choice([-4.0, 0.0, 4.0], n)
    if side == "positive":
        x = np.abs(x)
    elif side == "negative":
        x = -np.abs(x)
    x[: draw(st.integers(0, n // 3))] = 0.0
    pos, neg = (GAMMA_POS, GAMMA_NEG) if kind == "gamma" else (INVGAMMA_POS, INVGAMMA_NEG)
    sides = []
    for fam in (pos, neg):
        shape = float(rng.uniform(0.5, 30.0))
        mean = float(rng.uniform(0.5, 8.0)) * scale
        rate = shape / mean if kind == "gamma" else mean * (shape + 1.0)
        sides.append(ShapeRateParams(shape, rate, fam))
    comp1 = GaussianParams(float(rng.uniform(-2.0, 2.0)) * scale, 1.0 / (float(rng.uniform(0.3, 3.0)) * scale) ** 2)
    return x * scale, MixtureParams(draw(proportions()), comp1, *sides)


def _params(pi, kind="gamma"):
    pos, neg = (GAMMA_POS, GAMMA_NEG) if kind == "gamma" else (INVGAMMA_POS, INVGAMMA_NEG)
    return MixtureParams(
        np.asarray(pi, dtype=float),
        GaussianParams(0.5, 2.0),
        ShapeRateParams(4.0, 1.5, pos),
        ShapeRateParams(2.0, 3.0, neg),
    )


def _assert_matches_oracle(x, params):
    cache = _DataCache(x)
    stats, loglik, degenerate = _e_step(cache, params)
    gamma = _assemble_gamma(cache)
    want, want_loglik, want_degenerate = oracle(x, params)

    assert degenerate == want_degenerate
    assert np.max(np.abs(gamma - want)) <= TOL
    assert abs(loglik - want_loglik) <= TOL * max(1.0, abs(want_loglik))

    # The sums the M-step reads, each within TOL of its own size. The
    # Gaussian ones are totals minus sides unless that would cancel.
    sq = x * x
    mirrored = [x @ want[:, 1], -(x @ want[:, 2])]
    assert np.allclose(stats.n, want.sum(axis=0), rtol=TOL, atol=TOL * x.size)
    for got, exact, size in (
        (stats.xbar[0], x @ want[:, 0], np.abs(x) @ want[:, 0]),
        (stats.sxx1, sq @ want[:, 0], sq @ want[:, 0]),
        (stats.xbar[1], mirrored[0], mirrored[0]),
        (-stats.xbar[2], mirrored[1], mirrored[1]),
        (stats.sq_x[0], sq @ want[:, 1], sq @ want[:, 1]),
        (stats.sq_x[1], sq @ want[:, 2], sq @ want[:, 2]),
    ):
        assert abs(got - exact) <= TOL * size + 1e-300
    return gamma, want


EXAMPLES = (
    (np.array([-1.0, 0.0, 2.0]), _params((0.0, 1.0, 0.0))),
    (np.array([-1.0, 0.0, 2.0, 0.0]), _params((0.0, 0.5, 0.5), "invgamma")),
    (np.zeros(3), _params((0.0, 0.5, 0.5))),
    (np.array([3.0, 40.0, 25.0, 1e-3]), _params((0.2, 0.8, 0.0))),
)


def _with_examples(test):
    for c in EXAMPLES:
        test = example(c=c)(test)
    return test


@SETTINGS
@given(c=case())
@_with_examples
def test_ml_kernel_matches_dense_oracle(c):
    _assert_matches_oracle(*c)

    # The two support sides and the exact zeros partition the samples, each
    # side holds its mirrored values, all positive, and the assembled matrix
    # leaves each side's off-support activation at exactly 0.
    x, params = c
    cache = _DataCache(x)
    rows = np.concatenate([side.rows for side in cache.sides])
    assert rows.size + cache.n_zero == x.size
    assert np.array_equal(np.sort(rows), np.nonzero(x != 0)[0])
    assert cache.n_zero == np.count_nonzero(x == 0)
    for side in cache.sides:
        assert np.array_equal(side.vals, side.sign * x[side.rows])
        assert np.all(side.vals > 0)
    _e_step(cache, params)
    gamma = _assemble_gamma(cache)
    for k, side in enumerate(cache.sides):
        other = 2 - k
        assert np.all(gamma[side.rows, other] == 0.0)
    assert np.all(gamma[x == 0, 1:] == 0.0)


@SETTINGS
@given(c=case())
@_with_examples
def test_ml_kernel_matches_dense_oracle_across_blocks(c):
    # Degenerate points and the direct Gaussian sums fall in later blocks
    # too, and a side's last block is short.
    with mock.patch.object(estep, "_BLOCK", 7):
        _assert_matches_oracle(*c)


def test_small_gaussian_mass_sums_do_not_cancel():
    # Nearly all mass sits in the activation components far from zero: the
    # Gaussian's sum of squares is about 1e-9 of the total.
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.gamma(50.0, 20.0, 5000), rng.normal(0.0, 0.01, 3)])
    params = MixtureParams(
        np.array([1e-3, 1.0 - 2e-3, 1e-3]),
        GaussianParams(0.0, 1e4),
        ShapeRateParams(50.0, 1.0 / 20.0, GAMMA_POS),
        ShapeRateParams(50.0, 1.0 / 20.0, GAMMA_NEG),
    )
    stats = _e_step(_DataCache(x), params)[0]
    want, _, _ = oracle(x, params)
    assert abs(stats.sxx1 - (x * x) @ want[:, 0]) <= 1e-10 * ((x * x) @ want[:, 0])


def test_direct_gaussian_sums_across_blocks():
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.gamma(50.0, 20.0, 500), rng.normal(0.0, 0.01, 3), [-2.0, 0.0]])
    rng.shuffle(x)
    params = MixtureParams(
        np.array([1e-3, 1.0 - 2e-3, 1e-3]),
        GaussianParams(0.0, 1e4),
        ShapeRateParams(50.0, 1.0 / 20.0, GAMMA_POS),
        ShapeRateParams(50.0, 1.0 / 20.0, GAMMA_NEG),
    )
    direct = []
    side_pass = estep._side_pass

    def spy(*args):
        direct.append(args[-1])
        return side_pass(*args)

    with mock.patch.object(estep, "_BLOCK", 7), mock.patch.object(estep, "_side_pass", spy):
        _assert_matches_oracle(x, params)
    assert direct == [False, False, True, True]


def test_inverse_gamma_floor_keeps_exp_in_range(monkeypatch):
    # Down to |x| = 1e-6 the inverse-Gamma log-weight -r/|x| lies far below
    # the Gaussian's: exp of the shifted weight would underflow without the
    # floor, and the responsibility becomes about 1e-304 instead.
    v = np.geomspace(1e-6, 4.0, 300)
    x = np.concatenate([v, -v, [0.0]])
    params = _params((0.6, 0.2, 0.2), "invgamma")
    e = estep.point_coefficients(params)
    c_sq, c_x, c0, const, c_log, c_lin, _ = estep.kernel_coefficients(e, params.families)[0]
    gap = (1e-12 * c_sq + 1e-6 * c_x + c0) - (math.log(1e-6) * c_log + 1e6 * c_lin + const)
    assert gap > 1e5

    real_exp = np.exp

    def exp(arg, out=None):
        with np.errstate(under="raise"):
            return real_exp(arg, out=out)

    monkeypatch.setattr(np, "exp", exp)
    cache = _DataCache(x)
    _e_step(cache, params)
    monkeypatch.undo()

    gamma, want = _assert_matches_oracle(x, params)
    assert np.all(gamma[x <= 0, 1] == 0.0) and np.all(gamma[x >= 0, 2] == 0.0)
    floored = want[:, 1:].max(axis=1) < 1e-304
    assert floored.sum() > 50
    assert np.all(gamma[floored, 1:].max(axis=1) <= 1e-303)
    g = [side.g for side in cache.sides]
    assert np.array_equal(g[0], gamma[x > 0, 1]) and np.array_equal(g[1], gamma[x < 0, 2])
