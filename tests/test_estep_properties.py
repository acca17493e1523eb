"""Property tests: the shared E-step kernel under point estimates (the ML
E-step) against a dense oracle.

The oracle builds the full N x 3 matrix of log pi_k + log p_k(x) from
``scipy.stats`` (norm, gamma, invgamma; -inf off the support and for a zero
proportion), hands rows with zero density under every component to the
Gaussian, and leaves them out of the log-likelihood. It masks exact zeros:
their rows are (1, 0, 0), and no sum and no log-likelihood counts them. The
inputs are hostile: proportions with exact zeros, exact-zero data, one-sided
data, n = 3, and scales of 1e+-150 with parameters scaled to match. The
kernel sweeps each side in blocks; a block length of 7 makes every case cross
block boundaries.
"""

import math
from unittest import mock

import numpy as np
import pytest
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
from gigmix.estep import _DataCache, responsibilities_at
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
    zero = x == 0
    bad = ~np.isfinite(lse) & ~zero
    ok = ~bad & ~zero
    gamma = np.zeros_like(lw)
    gamma[ok] = np.exp(lw[ok] - lse[ok, None])
    gamma[~ok] = (1.0, 0.0, 0.0)
    return gamma, float(lse[ok].sum()), int(bad.sum())


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
    stats, loglik, degenerate, e = _e_step(cache, params)
    gamma = responsibilities_at(cache, e, params.families)
    want, want_loglik, want_degenerate = oracle(x, params)

    assert degenerate == want_degenerate
    assert np.max(np.abs(gamma - want)) <= TOL
    assert abs(loglik - want_loglik) <= TOL * max(1.0, abs(want_loglik))

    # The sums the M-step reads, each within TOL of its own size. The
    # Gaussian ones are totals minus sides unless that would cancel. No sum
    # counts an exact zero.
    sq = x * x
    mirrored = [x @ want[:, 1], -(x @ want[:, 2])]
    assert np.allclose(stats.n, want[x != 0].sum(axis=0), rtol=TOL, atol=TOL * x.size)
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

    # The two support sides partition the nonzero samples, whose count the
    # cache holds, each side holds its mirrored values, all positive, and the
    # assembled matrix leaves each side's off-support activation at exactly 0.
    x, params = c
    cache = _DataCache(x)
    rows = np.concatenate([side.rows for side in cache.sides])
    assert rows.size == cache.n
    assert np.array_equal(np.sort(rows), np.nonzero(x != 0)[0])
    assert cache.n == np.count_nonzero(x)
    for side in cache.sides:
        assert np.array_equal(side.vals, side.sign * x[side.rows])
        assert np.all(side.vals > 0)
    e = _e_step(cache, params)[3]
    gamma = responsibilities_at(cache, e, params.families)
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


def _gamma_by_rows(cache):
    """The N x 3 responsibilities of the cache's last pass, written row set by
    row set: a column of ones, then each side's rows of two columns."""
    gamma = np.zeros((cache.x.size, 3))
    gamma[:, 0] = 1.0
    for k, side in enumerate(cache.sides):
        gamma[side.rows, 0] = 1.0 - side.g
        gamma[side.rows, k + 1] = side.g
    return gamma


_HALF_NORMAL = np.abs(np.random.default_rng(5).normal(0.0, 2.0, 50))


@pytest.mark.parametrize(
    "x, pi, kind",
    [
        # n = 3, and the negative side degenerate (both its components have
        # a zero proportion)
        (np.array([-1.0, 0.5, 2.0]), (0.0, 1.0, 0.0), "gamma"),
        (np.array([-1.0, 0.0, 2.0, 0.0, -3.0, 0.0]), (0.4, 0.3, 0.3), "invgamma"),
        (_HALF_NORMAL, (0.5, 0.3, 0.2), "gamma"),
        (-_HALF_NORMAL, (0.5, 0.3, 0.2), "invgamma"),
        (np.zeros(4), (0.4, 0.3, 0.3), "gamma"),
    ],
    ids=["n3_degenerate", "exact_zeros", "positive_only", "negative_only", "all_zero"],
)
def test_responsibilities_are_the_bytes_of_the_per_side_writes(x, pi, kind):
    # responsibilities_at writes whole columns from one scattered activation
    # vector; the bytes are those of writing each side's rows into a matrix
    # of (1, 0, 0) rows.
    params = _params(pi, kind)
    cache = _DataCache(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = responsibilities_at(cache, estep.point_coefficients(params), params.families)
    assert gamma.tobytes() == _gamma_by_rows(cache).tobytes()
    assert np.all(gamma[x == 0] == (1.0, 0.0, 0.0))


@pytest.mark.parametrize("n", [10_000, 100_000])
@pytest.mark.parametrize("families", [(GAMMA_POS, GAMMA_NEG), (INVGAMMA_POS, INVGAMMA_NEG)], ids=["gamma", "invgamma"])
def test_kernel_arrays_start_on_64_byte_boundaries(n, families):
    # The same passes over arrays 16 bytes off a cache line took 6-16 % longer
    # at n = 1e4 and 3e5 with identical bits, so only this test sees an array
    # of the kernel allocated with plain np.empty.
    cache = _DataCache(np.random.default_rng(n).normal(size=n), families)
    for side in cache.sides:
        assert len(side.blocks) == -(-side.vals.size // estep._BLOCK) > 0
        for _, rows, _, work, g in side.blocks:
            assert len(rows) == cache.height and len(work) == 4
            assert [a.ctypes.data % 64 for a in (*rows, *work, g)] == [0] * (cache.height + 5)


# The binned copy of a data cache (``estep.binned_cache``): per side, the
# counts and exact sums of uniform bins over [0, max v], and the bin means the
# log-weights read. ``_BINNED_MIN`` is patched to 0 so that small hostile maps
# get a binned copy too.


@st.composite
def binned_case(draw):
    """Hostile maps: heavy tails, ties, one side, exact zeros, n = 1 to 3000
    and scales of 1e+-150 (heavy tails at 1e-150 only, so that v**2 stays
    finite)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from((1, 2, 3, 50, 3000)))
    shape = draw(st.sampled_from(("mixture", "cauchy", "lognormal", "ties", "constant")))
    if shape == "cauchy":
        x = rng.standard_cauchy(n)
    elif shape == "lognormal":
        x = rng.choice([-1.0, 1.0], n) * rng.lognormal(0.0, 3.0, n)
    elif shape == "constant":
        x = np.full(n, 0.1) * rng.choice([-1.0, 1.0], n)
    else:
        x = rng.normal(0.0, 1.0, n) + rng.choice([-4.0, 0.0, 4.0], n)
        if shape == "ties":
            x = np.round(x, 1)
    side = draw(st.sampled_from(("both", "positive", "negative")))
    if side != "both":
        x = np.abs(x) if side == "positive" else -np.abs(x)
    x[: draw(st.integers(0, n // 3))] = 0.0
    heavy = shape in ("cauchy", "lognormal")
    scale = draw(st.sampled_from((1.0, 1e-150) if heavy else (1.0, 1e150, 1e-150)))
    families = draw(st.sampled_from(((GAMMA_POS, GAMMA_NEG), (INVGAMMA_POS, INVGAMMA_NEG))))
    return x * scale, families


def _binned(x, families=None):
    with mock.patch.object(estep, "_BINNED_MIN", 0):
        cache = _DataCache(x, families)
        return cache, estep.binned_cache(cache)


@SETTINGS
@given(c=binned_case())
@example(c=(np.zeros(4), (GAMMA_POS, GAMMA_NEG)))
@example(c=(np.array([1e-300, 1.0, 1.0, 1.0 + 2**-52]), (INVGAMMA_POS, INVGAMMA_NEG)))
def test_binned_sides_keep_exact_counts_and_sums_and_means_inside_their_bins(c):
    x, families = c
    cache, binned = _binned(x, families)
    assert (binned.n, binned.sum_x, binned.sum_sq, binned.height) == (cache.n, cache.sum_x, cache.sum_sq, cache.height)
    # A fresh pass state, no per-point data, and sides of at most ``_BINS``
    # points, too short for the two-thread sweep.
    assert (binned.coefficients, binned.passes, binned.worker, binned.x) == (None, 0, None, None)
    assert binned.parallel is False
    for side, coarse in zip(cache.sides, binned.sides):
        counts = coarse.counts
        assert coarse.sign == side.sign and coarse.rows is None
        assert coarse.sums.shape == (cache.height + 1, counts.size) and coarse.stack.shape == (cache.height, counts.size)
        # The counts are whole, nonzero and add up exactly to the side's points.
        assert np.all(counts >= 1) and np.array_equal(counts, np.round(counts))
        assert counts.sum() == side.vals.size
        if not side.vals.size:
            assert counts.size == 0
            continue
        # Each bin holds a run of the sorted values, all with the bin's index.
        order = np.argsort(side.vals, kind="stable")
        values, rows = side.vals[order], side.stack[:, order]
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(int)
        vmax = side.vals.max()
        index = np.minimum((values / vmax * estep._BINS).astype(int), estep._BINS - 1)
        assert np.array_equal(index, np.repeat(index[starts], counts.astype(int)))
        assert np.all(np.diff(index[starts]) > 0)
        # Each bin's sums are the sums of its values' rows, and so are the
        # totals of each row, within 1e-12 of the sum of magnitudes.
        for got, want, size in (
            (coarse.sums[1:], np.add.reduceat(rows, starts, axis=1), np.add.reduceat(np.abs(rows), starts, axis=1)),
            (coarse.sums[1:].sum(axis=1), rows.sum(axis=1), np.abs(rows).sum(axis=1)),
        ):
            assert np.all(np.abs(got - want) <= 1e-12 * size + 1e-300)
        # The bin's point is its mean, inside the bin; the log-weights read
        # its rows.
        width, k = vmax / estep._BINS, index[starts]
        assert np.all((k * width <= coarse.vals) & (coarse.vals <= (k + 1) * width))
        assert np.array_equal(coarse.vals, np.clip(coarse.sums[1] / counts, k * width, (k + 1) * width))
        assert np.array_equal(coarse.sq, coarse.vals * coarse.vals)
        assert np.array_equal(coarse.logs, np.log(coarse.vals))
        if cache.height == 4:
            assert np.array_equal(coarse.invs, 1.0 / coarse.vals)


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("kind", ["gamma", "invgamma"])
@pytest.mark.parametrize("empty", ["one_sided", "no_points"])
def test_a_binned_side_without_points_is_empty_and_a_pass_runs(side, kind, empty):
    # One-sided data, and data whose every value sits at an exact zero
    # except on one side, leave the other binned side empty.
    x = np.abs(np.random.default_rng(side).normal(1.0, 2.0, 500)) * (1.0 if side == 0 else -1.0)
    if empty == "no_points":
        x[1::2] = 0.0
    params = _params((0.6, 0.2, 0.2), kind)
    cache, binned = _binned(x, params.families)
    assert binned.sides[1 - side].counts.size == 0 and binned.sides[1 - side].blocks == []
    assert binned.sides[side].counts.sum() == cache.n
    with np.errstate(divide="ignore"):
        stats, lse, degenerate = estep._responsibility_pass(binned, estep.point_coefficients(params), params.families)
    assert math.isfinite(lse) and degenerate == 0
    assert stats.n[2 - side] == 0.0 and stats.n.sum() == pytest.approx(cache.n, rel=1e-12)


def test_only_a_cache_of_at_least_binned_min_values_has_a_binned_copy():
    # The threshold sits above the n = 1e4 maps of the acceptance suite and
    # the benchmark grid; exact zeros do not count.
    assert estep._BINNED_MIN > 10_000
    x = np.random.default_rng(0).normal(size=estep._BINNED_MIN)
    assert estep.binned_cache(_DataCache(x)) is not None
    x[7] = 0.0
    assert estep.binned_cache(_DataCache(x)) is None


@pytest.mark.parametrize("kind", ["gamma", "invgamma"])
def test_a_binned_pass_ends_near_the_per_point_pass(kind):
    # Within a bin the responsibility is nearly linear in v, so a pass on
    # the bins' exact sums ends within second order in the bin width.
    rng = np.random.default_rng(1)
    x = rng.normal(rng.choice([-3.0, 0.0, 3.0], 60_000, p=[0.1, 0.8, 0.1]), 1.0)
    params = _params((0.8, 0.1, 0.1), kind)
    cache, binned = _binned(x, params.families)
    e = estep.point_coefficients(params)
    full, lse, _ = estep._responsibility_pass(cache, e, params.families)
    coarse, binned_lse, _ = estep._responsibility_pass(binned, e, params.families)
    # A Gamma pass takes no sum of 1/v.
    for name in ("n", "xbar", "sq_x", "log_x", "recip_x")[: 5 if kind == "invgamma" else 4]:
        want, got = getattr(full, name), getattr(coarse, name)
        assert np.all(np.abs(got - want) <= 1e-4 * np.abs(want)), name
    assert abs(coarse.sxx1 - full.sxx1) <= 1e-4 * full.sxx1
    assert abs(binned_lse - lse) <= 1e-6 * abs(lse)


@pytest.mark.parametrize("kind", ["gamma", "invgamma"])
def test_a_binned_pass_counts_the_degenerate_points_of_its_bins(kind):
    # With pi = (0, 0, 1) no component can hold a positive value, so each is
    # degenerate: the binned pass weighs its degenerate bins by their counts
    # and gives them no activation, as the per-point pass does each point.
    rng = np.random.default_rng(1)
    x = rng.normal(rng.choice([-3.0, 0.0, 3.0], 60_000, p=[0.1, 0.8, 0.1]), 1.0)
    params = _params((0.0, 0.0, 1.0), kind)
    cache, binned = _binned(x, params.families)
    full, coarse = estep.point_pass(cache, params), estep.point_pass(binned, params)
    assert full[2] == coarse[2] == np.count_nonzero(x > 0)
    assert np.all(binned.sides[0].g == 0.0) and np.all(cache.sides[0].g == 0.0)


@pytest.mark.parametrize(
    "kind",
    [
        "gamma",
        pytest.param(
            "invgamma",
            marks=pytest.mark.xfail(
                strict=True,
                reason="FOUND 78: the binned log-sum-exp is -351073.7 against -1084564.7 per point; "
                "a bin's 1/v is taken at its mean, so the -r/v term of the values near 0 is lost",
            ),
        ),
    ],
)
def test_a_binned_pass_with_degenerate_points_ends_near_the_per_point_objective(kind):
    # The map and the proportions of the test above: only the negative
    # activation has weight, so it holds every negative value, those near 0
    # among them (Gamma: -54819.7 against -54840.0).
    rng = np.random.default_rng(1)
    x = rng.normal(rng.choice([-3.0, 0.0, 3.0], 60_000, p=[0.1, 0.8, 0.1]), 1.0)
    params = _params((0.0, 0.0, 1.0), kind)
    cache, binned = _binned(x, params.families)
    lse, binned_lse = estep.point_pass(cache, params)[1], estep.point_pass(binned, params)[1]
    assert abs(binned_lse - lse) <= 1e-3 * abs(lse)


def test_a_binned_pass_across_blocks_weighs_each_block_by_its_counts():
    # A binned side holds at most ``_BINS`` points, one block; with blocks of
    # 7 every bin count, sum and log-sum-exp term crosses block boundaries.
    rng = np.random.default_rng(2)
    x = np.round(rng.normal(rng.choice([-3.0, 0.0, 3.0], 5000, p=[0.1, 0.8, 0.1]), 1.0), 2)
    params = _params((0.8, 0.1, 0.1), "invgamma")
    e = estep.point_coefficients(params)
    passes = []
    for block in (estep._BLOCK, 7):
        with mock.patch.object(estep, "_BLOCK", block):
            binned = _binned(x, params.families)[1]
        assert len(binned.sides[0].blocks) == -(-binned.sides[0].counts.size // block)
        passes.append(estep._responsibility_pass(binned, e, params.families))
    (one, lse_one, _), (many, lse_many, _) = passes
    for name in ("n", "xbar", "sq_x", "log_x", "recip_x"):
        assert np.allclose(getattr(many, name), getattr(one, name), rtol=1e-12, atol=0.0), name
    assert lse_many == pytest.approx(lse_one, rel=1e-12)
