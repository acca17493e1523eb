"""Property tests: every model fitted by name through ``experiments.fit``.

The inputs are hostile: three samples, tied values, exact zeros, one-sided
data, scales of 1e+-150 and Cauchy tails. On each input every model must
return finite responsibilities on the probability simplex that obey the
support rule (no positive-activation mass at x <= 0, no negative-activation
mass at x >= 0), and a repeat fit with the same seed must reproduce the first
one exactly. Fitting the mirrored data -x must mirror the fit: the same
iteration count, and responsibilities with the two activation columns
swapped.

At the 1e+150 scale the suite draws only mixture data with at least 100
samples. On smaller, tied, one-sided or Cauchy-tailed data at that scale the
variational fitters raise instead of fitting: a k-means cluster whose
variance sits at the absolute floor of ``initialization`` gives a
method-of-moments shape of mean**2 / 1e-6, which overflows.
``test_large_scale_small_cluster_is_refused`` pins one such input as a known
failure. The ML fitters start from the noise core, which has no such floor,
and fit that input (``test_large_scale_small_cluster_fits_from_the_core``).
"""

import contextlib
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gigmix import ml_em, vb_em
from gigmix.experiments import MODEL_NAMES, SyntheticSpec, fit, generate
from gigmix.ml_em import MLFitConfig, fit_ggm, fit_gim
from gigmix.vb_em import VBFitConfig, fit_bggm, fit_bgim, negative_free_energy

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

_SCALES = (1.0, 1e-150)


@st.composite
def tied_data(draw):
    """Small integers (zeros and duplicates included), n from 3, scaled."""
    values = draw(st.lists(st.integers(-4, 4), min_size=3, max_size=40))
    return np.asarray(values, dtype=float) * draw(st.sampled_from(_SCALES))


@st.composite
def drawn_data(draw):
    """Continuous draws, some of them one-sided or heavy-tailed, with a share
    of exact zeros."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 300))
    kind = draw(st.sampled_from(("mixture", "cauchy", "positive", "negative")))
    if kind == "mixture":
        x = rng.normal(rng.choice([-3.0, 0.0, 3.0], n, p=[0.1, 0.8, 0.1]), 1.0)
    elif kind == "cauchy":
        x = rng.standard_cauchy(n)
    elif kind == "positive":
        x = rng.lognormal(0.0, 1.5, n)
    else:
        x = -rng.exponential(1.0, n)
    x[: draw(st.integers(0, n // 4))] = 0.0
    return x * draw(st.sampled_from(_SCALES))


@st.composite
def large_scale_data(draw):
    """Three-cluster mixture data at the 1e+150 scale, with exact zeros."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(100, 300))
    x = rng.normal(rng.choice([-3.0, 0.0, 3.0], n, p=[0.1, 0.8, 0.1]), 1.0)
    x[: draw(st.integers(0, n // 4))] = 0.0
    return x * 1e150


def _fit_quietly(model, x, seed):
    # Constant input makes k-means warn that it duplicates one cluster.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fit(model, x, seed)


def check_fit(model, x, seed):
    r = _fit_quietly(model, x, seed)
    g = r.responsibilities
    assert g.shape == (x.size, 3)
    assert np.all(np.isfinite(g))
    assert np.all(g >= 0.0)
    assert np.allclose(g.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    assert np.all(g[x <= 0, 1] == 0.0)
    assert np.all(g[x >= 0, 2] == 0.0)
    again = _fit_quietly(model, x, seed)
    assert np.array_equal(again.responsibilities, g)
    assert again.iterations == r.iterations
    assert again.converged == r.converged


@pytest.mark.parametrize("model", MODEL_NAMES)
@SETTINGS
@given(
    x=st.one_of(tied_data(), drawn_data(), large_scale_data()),
    seed=st.integers(0, 2**31 - 1),
)
@example(x=np.array([-1.0, 0.0, 2.0]), seed=0)
@example(x=np.zeros(5), seed=1)
@example(x=np.full(7, 3.0), seed=2)
@example(x=np.array([0.5, 0.5, 0.5, 4.0, 4.0]), seed=3)
@example(x=-np.array([0.5, 1.0, 2.0, 8.0]), seed=4)
def test_fit_is_finite_on_simplex_supported_and_deterministic(model, x, seed):
    check_fit(model, x, seed)


_LARGE_SMALL_CLUSTER = np.array([0.6, 8.3, 37.7]) * 1e150


@pytest.mark.xfail(raises=ValueError, strict=True, reason="shape overflow at 1e+150 scale")
@pytest.mark.parametrize("model", ["bggm", "bgim"])
def test_large_scale_small_cluster_is_refused(model):
    check_fit(model, _LARGE_SMALL_CLUSTER, 0)


@pytest.mark.parametrize("model", ["ggm", "gim"])
def test_large_scale_small_cluster_fits_from_the_core(model):
    # No sample lies three scales beyond the median, so the start, and the
    # fit, put all three in the noise component.
    check_fit(model, _LARGE_SMALL_CLUSTER, 0)
    g = fit(model, _LARGE_SMALL_CLUSTER, 0).responsibilities
    assert np.array_equal(g, np.tile([1.0, 0.0, 0.0], (3, 1)))


@st.composite
def mixture_data(draw):
    """Continuous three-cluster mixture data, n from 50 to 300."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(50, 300))
    return rng.normal(rng.choice([-3.0, 0.0, 3.0], n, p=[0.1, 0.8, 0.1]), 1.0)


# Mirrored data reach the same arithmetic up to rounding (sums run over the
# sides in the other order), so converged mirror fits agree to about 1e-12.
SIGN_FLIP_ATOL = 1e-8


def check_sign_flip(model, x, seed):
    r = _fit_quietly(model, x, seed)
    m = _fit_quietly(model, -x, seed)
    assert m.iterations == r.iterations
    assert m.converged == r.converged
    if r.converged:
        swapped = m.responsibilities[:, [0, 2, 1]]
        assert np.max(np.abs(swapped - r.responsibilities)) <= SIGN_FLIP_ATOL


@pytest.mark.parametrize("model", MODEL_NAMES)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(x=mixture_data(), seed=st.integers(0, 2**31 - 1))
def test_sign_flip_mirrors_the_fit(model, x, seed):
    # A fit that stops at the iteration cap is only checked for stopping
    # there on both sides: past its fixed point, rounding decides its path.
    check_sign_flip(model, x, seed)


def test_sign_flip_of_capped_bggm_fit():
    # A plain coordinate ascent ran bggm to its cap here with a falling
    # objective, and the two runs drifted about 0.8 apart in gamma. The fit now
    # ends at its last ascending state, and that state mirrors.
    rng = np.random.default_rng(5)
    n = int(rng.integers(50, 400))
    x = rng.normal(rng.choice([-3.0, 0.0, 3.0], n, p=[0.1, 0.8, 0.1]), 1.0)
    r = _fit_quietly("bggm", x, 5)
    assert r.stop_reason == "no_ascent"
    check_sign_flip("bggm", x, 5)


@contextlib.contextmanager
def _counted(module, name):
    """Count the calls through ``module.name`` while the block runs. The patch
    is made by hand: hypothesis refuses a function-scoped fixture such as
    ``monkeypatch`` in a test it runs many times."""
    calls, original = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    setattr(module, name, counted)
    try:
        yield calls
    finally:
        setattr(module, name, original)


# Criterion 5's slack: a recorded NFE may fall by at most this share of
# 1 + |NFE| from the one before it.
NFE_SLACK = 1e-6

_VB_FITTERS = {"bggm": fit_bggm, "bgim": fit_bgim}


def check_vb_trace(model, x, seed, max_iterations):
    with warnings.catch_warnings(), _counted(vb_em, "_responsibility_pass") as calls:
        warnings.simplefilter("ignore")
        r = _VB_FITTERS[model](x, VBFitConfig(max_iterations=max_iterations, seed=seed))
    # Every kernel pass is counted but the one at the k-means start.
    assert r.iterations == len(calls) - 1
    t = r.nfe_trace
    assert np.all(np.diff(t) >= -NFE_SLACK * (1.0 + np.abs(t[:-1])))
    assert 1 <= t.size <= r.iterations <= max_iterations
    assert r.converged == (r.stop_reason != "max_iterations")
    if not r.converged:
        assert r.iterations == max_iterations
    value = negative_free_energy(x, r.responsibilities, r.state, r.priors, r.expectations)
    assert value == pytest.approx(t[-1], rel=1e-12)


@pytest.mark.parametrize("model", sorted(_VB_FITTERS))
@SETTINGS
@given(
    x=st.one_of(tied_data(), drawn_data(), large_scale_data()),
    seed=st.integers(0, 2**31 - 1),
    max_iterations=st.one_of(st.integers(1, 12), st.just(500)),
)
@example(x=np.array([-1.0, 0.0, 2.0]), seed=0, max_iterations=500)
@example(x=np.zeros(5), seed=1, max_iterations=500)
@example(x=-np.array([0.5, 1.0, 2.0, 8.0]), seed=4, max_iterations=3)
def test_vb_trace_ascends_within_its_budget_and_matches_the_fit(model, x, seed, max_iterations):
    # The recorded objective never falls by more than the slack, the pass
    # count is the number of kernel passes, stays within the cap and reaches
    # it exactly when the fit is capped, and the last recorded NFE is the
    # objective of the returned responsibilities, state and expectations.
    check_vb_trace(model, x, seed, max_iterations)


_ML_FITTERS = {"ggm": fit_ggm, "gim": fit_gim}


def check_ml_trace(model, x, seed, max_iterations):
    with warnings.catch_warnings(), _counted(ml_em, "_e_step") as calls:
        warnings.simplefilter("ignore")
        r = _ML_FITTERS[model](x, None, MLFitConfig(max_iterations=max_iterations, seed=seed))
    assert r.iterations == len(calls)
    assert 1 <= r.iterations <= max_iterations
    assert len(r.loglik_trace) == r.iterations
    assert r.stop_reason in ("tolerance", "max_iterations")
    assert r.converged == (r.stop_reason != "max_iterations")
    if not r.converged:
        assert r.iterations == max_iterations


@pytest.mark.parametrize("model", sorted(_ML_FITTERS))
@SETTINGS
@given(
    x=st.one_of(tied_data(), drawn_data(), large_scale_data()),
    seed=st.integers(0, 2**31 - 1),
    max_iterations=st.one_of(st.integers(1, 12), st.just(500)),
)
@example(x=np.array([-1.0, 0.0, 2.0]), seed=0, max_iterations=500)
@example(x=np.zeros(5), seed=1, max_iterations=500)
@example(x=-np.array([0.5, 1.0, 2.0, 8.0]), seed=4, max_iterations=3)
def test_ml_trace_stays_within_its_budget(model, x, seed, max_iterations):
    # One E-step pass per recorded log-likelihood, falling ones included; the
    # pass count is the number of kernel passes, stays within the cap and
    # reaches it exactly when capped.
    check_ml_trace(model, x, seed, max_iterations)


# ROADMAP item 17's invariant: a power-of-two factor on the map leaves every
# fit's responsibilities byte-identical, with the same passes and stop
# reason. The map is d1-snr3-sp2 (n = 1e4, data seed 0). Each case that does
# not hold yet is a strict xfail: against k = 0, max |dgamma| ran from 0.0019
# (gim, k = 1) to 0.89 (bgim, k = 4), and bggm took 14 passes at k = -4
# against 31.
_SCALED_FITS = {}
_ITEM_17 = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 17: the VB priors, the stop rule and the floors are in absolute "
    "units, so the fit moves with the map's scale",
)
_NOT_YET_INVARIANT = {(model, k) for model in MODEL_NAMES for k in (-4, -1, 1, 4)}


def _scaled_fit(model, k):
    if (model, k) not in _SCALED_FITS:
        x = generate(SyntheticSpec(1, 3.0, 2, n=10_000, seed=0), 0).values
        _SCALED_FITS[model, k] = fit(model, np.ldexp(x, k), 0)
    return _SCALED_FITS[model, k]


@pytest.mark.parametrize(
    "model, k",
    [
        pytest.param(model, k, marks=_ITEM_17 if (model, k) in _NOT_YET_INVARIANT else ())
        for model in MODEL_NAMES
        for k in (-4, -1, 1, 4)
    ],
)
def test_a_power_of_two_factor_leaves_the_fit_unchanged(model, k):
    base, scaled = _scaled_fit(model, 0), _scaled_fit(model, k)
    assert (scaled.iterations, scaled.stop_reason) == (base.iterations, base.stop_reason)
    assert scaled.responsibilities.tobytes() == base.responsibilities.tobytes()
