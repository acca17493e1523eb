"""Property tests: the deterministic 3-means against a brute force over cuts.

In 1-D the optimal clusters are contiguous runs of the sorted data, so the
least within-cluster sum of squares (SSE) over every pair of cuts of the
sorted data is the 3-means optimum. The brute force here evaluates each
cluster's SSE directly, two-pass; ``kmeans_1d`` searches cut pairs among
quantile-bin edges with prefix sums and polishes them with Lloyd steps. For
n <= 128 every cut is a candidate, so it must find the optimum.

SSEs are compared on the data rescaled by a power of two (exact) to a
largest magnitude in [0.5, 1), so that inputs at 1e+-150 and 1e+-250 neither
overflow nor underflow when squared.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gigmix import initialization
from gigmix.experiments import SyntheticSpec, generate
from gigmix.initialization import kmeans_1d

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

# Integers times a power of two: many ties and duplicates; 2**+-500 is about
# 1e+-150.
_DYADIC_SCALES = (1.0, -1.0, 0.125, 2.0**-500, 2.0**500)


@st.composite
def exact_data(draw, lo=-8, hi=8, max_size=60, scales=_DYADIC_SCALES):
    values = draw(st.lists(st.integers(lo, hi), min_size=3, max_size=max_size))
    return np.asarray(values, dtype=float) * draw(st.sampled_from(scales))


@st.composite
def continuous_data(draw, max_n=128, scales=(1.0, 1e-150, 1e150, 1e-250, 1e250)):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, max_n))
    kind = draw(st.sampled_from(("mixture", "cauchy", "t", "lognormal")))
    if kind == "mixture":
        x = rng.normal(rng.choice([-3.0, 0.0, 3.0], n, p=[0.1, 0.8, 0.1]), 1.0)
    elif kind == "cauchy":
        x = rng.standard_cauchy(n)
    elif kind == "t":
        x = rng.standard_t(1.5, n)
    else:
        x = rng.lognormal(0.0, 2.0, n)  # one-sided, heavy right tail
    return x * draw(st.sampled_from(scales))


def _three_distinct(x):
    return np.unique(x).size >= 3


def _normalised(x, values=None):
    """``values`` (default ``x``) times the power of two that brings the
    largest magnitude of ``x`` into [0.5, 1)."""
    return np.ldexp(x if values is None else values, -np.frexp(np.max(np.abs(x)))[1])


def _segment_sse(v):
    return float(np.sum((v - v.mean()) ** 2)) if v.size else 0.0


def brute_force_sse(x):
    """Least SSE over every split of the sorted data into three non-empty
    runs; each run's SSE is taken about its own mean."""
    xs = np.sort(_normalised(x))
    n = xs.size
    seg = np.full((n + 1, n + 1), np.inf)
    for lo in range(n):
        v = xs[lo:]
        means = np.cumsum(v) / np.arange(1, v.size + 1)
        # Column h holds the squared deviations of v[:h + 1] from its mean.
        seg[lo, lo + 1:] = np.triu((v[:, None] - means[None, :]) ** 2).sum(axis=0)
    a, b = np.triu_indices(n + 1, 1)
    inner = (a > 0) & (b < n)
    return float(np.min(seg[0, a[inner]] + seg[a[inner], b[inner]] + seg[b[inner], n]))


def kmeans_sse(x, km):
    xn = _normalised(x)
    return sum(_segment_sse(xn[km.assignments == j]) for j in range(3))


def assert_optimal(x, seed=0):
    best = brute_force_sse(x)
    mine = kmeans_sse(x, kmeans_1d(x, 3, seed))
    assert abs(mine - best) <= 1e-12 * best + 1e-30


def assert_well_formed(x, km):
    """Sorted clusters whose counts sum to n, equal values sharing a label,
    and every label a nearest center."""
    n = x.size
    assert km.cluster_counts.sum() == n
    assert np.array_equal(np.bincount(km.assignments, minlength=3), km.cluster_counts)
    assert np.array_equal(km.centers, km.cluster_means)
    assert np.all(np.diff(km.cluster_means) > 0 if _three_distinct(x) else np.diff(km.cluster_means) >= 0)
    order = np.argsort(x, kind="stable")
    xs, labels = x[order], km.assignments[order]
    assert np.all(np.diff(labels) >= 0)
    assert np.all(labels[1:][xs[1:] == xs[:-1]] == labels[:-1][xs[1:] == xs[:-1]])
    # The cuts come from prefix-sum means, which differ from the reported
    # means by rounding.
    xn, means = _normalised(x), _normalised(x, km.cluster_means)
    full = km.cluster_counts > 0
    own = np.abs(xn - means[km.assignments])
    nearest = np.min(np.abs(xn[:, None] - means[full][None, :]), axis=1)
    assert np.all(own <= nearest + 1e-9)


@SETTINGS
@given(exact_data().filter(_three_distinct), st.integers(0, 2**31 - 1))
def test_matches_oracle_on_ties_and_duplicates(x, seed):
    assert_optimal(x, seed)


@SETTINGS
@given(exact_data(lo=0, hi=12).filter(_three_distinct), st.integers(0, 2**31 - 1))
def test_matches_oracle_on_one_sided_data(x, seed):
    assert_optimal(x, seed)


@SETTINGS
@given(
    st.lists(st.integers(-3, 3), min_size=3, max_size=3).map(lambda v: np.asarray(v, dtype=float)).filter(_three_distinct),
    st.integers(0, 2**31 - 1),
)
def test_matches_oracle_on_three_points(x, seed):
    assert_optimal(x, seed)


@SETTINGS
@given(continuous_data(), st.integers(0, 2**31 - 1))
def test_matches_oracle_on_heavy_tails_and_extreme_scales(x, seed):
    assert_optimal(x, seed)


@SETTINGS
@given(st.one_of(exact_data(max_size=300), continuous_data(max_n=1000)))
def test_labels_are_sorted_nearest_and_shared_by_equal_values(x):
    assert_well_formed(x, kmeans_1d(x, 3, 0))


@SETTINGS
@given(
    st.one_of(exact_data(max_size=300, scales=(1.0, -1.0, 0.125)), continuous_data(max_n=1000, scales=(1.0,))),
    st.integers(-500, 500),
)
def test_power_of_two_scaling_keeps_labels_and_scales_means(x, k):
    km, scaled = kmeans_1d(x, 3, 0), kmeans_1d(np.ldexp(x, k), 3, 0)
    assert np.array_equal(scaled.assignments, km.assignments)
    assert np.array_equal(scaled.cluster_counts, km.cluster_counts)
    assert np.array_equal(scaled.cluster_means, np.ldexp(km.cluster_means, k))


# Inputs on which a seeded k-means++ start emptied a cluster. Four have fewer
# than three distinct values and fall back to the sign split; the fifth is a
# plain 3-means.
@pytest.mark.parametrize(
    "x, seed",
    [
        ([0.1, 0.1, 0.1, -5.0, -5.0], 108),
        ([19.82187632237636, 0.1, 0.1, 0.1], 998),
        ([0.1, 5.0, 5.0, 0.1, 0.1, 5.0], 786),
        ([0.0, 0.0, 0.1, 0.1, 0.1, 0.0], 841),
        (
            [0.8220751231924043, -0.1552693500863964, -0.903818489154055, 0.6545079817823998,
             0.826159320241796, 0.62275606488657, -0.13885299607807905],
            187,
        ),
    ],
)
def test_matches_oracle_through_empty_cluster_reseeds(x, seed):
    x = np.asarray(x)
    if _three_distinct(x):
        assert_optimal(x, seed)
        km = kmeans_1d(x, 3, seed)
    else:
        with pytest.warns(UserWarning, match="fewer than 3 distinct"):
            km = kmeans_1d(x, 3, seed)
        assert np.array_equal(km.assignments, 1 + np.sign(x).astype(int))
    assert_well_formed(x, km)


def _prefix_brute_force_sse(x):
    """Least SSE over every pair of cuts, from prefix sums of centred data;
    one row of cut pairs at a time."""
    xs = np.sort(x)
    c = xs - xs.mean()
    s1 = np.concatenate(([0.0], np.cumsum(c)))
    s2 = np.concatenate(([0.0], np.cumsum(c * c)))
    n, best = xs.size, np.inf

    def sse(lo, hi):
        return s2[hi] - s2[lo] - (s1[hi] - s1[lo]) ** 2 / (hi - lo)

    for a in range(1, n - 1):
        b = np.arange(a + 1, n)
        best = min(best, float(sse(0, a) + np.min(sse(a, b) + sse(b, n))))
    return best


# The three grid-small maps of the benchmark; above n = 128 the search is
# binned and must come within 1e-3 of the optimum.
@pytest.mark.parametrize(
    "dataset, snr, sparsity, n, data_seed, fit_seed",
    [
        (1, 2.0, 1, 10_000, 0, 1),
        (1, 5.0, 3, 10_000, 1, 2),
        (2, 3.0, 2, 10_000, 2, 3),
    ],
)
def test_matches_oracle_on_benchmark_maps(dataset, snr, sparsity, n, data_seed, fit_seed):
    spec = SyntheticSpec(dataset=dataset, snr=snr, sparsity=sparsity, n=n, repeats=1, seed=data_seed)
    x = generate(spec, 0, 0).values
    km = kmeans_1d(x, 3, fit_seed)
    best = _prefix_brute_force_sse(x)
    mine = sum(_segment_sse(x[km.assignments == j]) for j in range(3))
    assert best * (1 - 1e-9) <= mine <= best * (1 + 1e-3)
    assert_well_formed(x, km)


# One value fills at least 127/128 of the data, so every quantile-bin edge
# falls on the same cut; the first and last valid cuts stay candidates.
DOMINANT_END = [
    [0.0] * 995 + [1.0, 2.0, 3.0, 4.0, 5.0],
    [1.0, 2.0, 3.0, 4.0, 5.0] + [10.0] * 995,
    [-10.0] * 995 + [-5.0, -4.0, -3.0, -2.0, -1.0],
    [0.0] * 998 + [7.0, 9.0],
]


@pytest.mark.parametrize("values", DOMINANT_END)
def test_matches_oracle_when_one_value_fills_the_data(values):
    x = np.asarray(values)
    km = kmeans_1d(x, 3)
    mine = sum(_segment_sse(x[km.assignments == j]) for j in range(3))
    assert mine <= _prefix_brute_force_sse(x) * (1 + 1e-12) + 1e-12
    assert_well_formed(x, km)


def test_fit_large_map_is_well_formed():
    # The fit-large benchmark map (n = 3e5), too large for the brute force:
    # the start is checked for form and its cluster counts are pinned.
    spec = SyntheticSpec(dataset=1, snr=2.0, sparsity=1, n=300_000, repeats=1, seed=10)
    x = generate(spec, 0, 0).values
    km = kmeans_1d(x, 3)
    assert km.cluster_counts.tolist() == [73272, 152699, 74029]
    assert_well_formed(x, km)


def _reference_candidates(xs):
    """The candidate cuts by the valid-array rule: every index where a new
    value starts is a valid cut, and each bin edge maps to the nearest valid
    cut at or below it (lower half) or at or above it (upper half), clipped
    to the first and last valid cuts, which are candidates too. Needs at
    least two valid cuts (three distinct values)."""
    n = xs.size
    valid = np.flatnonzero(xs[1:] != xs[:-1]) + 1
    edges = np.arange(1, initialization._BINS) * (n / initialization._BINS)
    low, high = edges[edges <= n / 2], edges[edges >= n / 2]
    at = np.concatenate((valid.searchsorted(low, "right") - 1, valid.searchsorted(high)))
    at = np.concatenate(([0, valid.size - 1], np.clip(at, 0, valid.size - 1)))
    return valid, np.unique(valid[at])


def _reference_kmeans(x):
    """The 3-means start as it was before the O(n) shortcuts: cuts from the
    valid array, prefix sums by concatenation, labels from an appended
    sentinel and members by comparing the label array."""
    xs = np.sort(x)
    n = xs.size
    valid = np.flatnonzero(xs[1:] != xs[:-1]) + 1
    if valid.size >= 2:
        cand = _reference_candidates(xs)[1]
        c = (xs - xs.mean()) / (xs[-1] - xs[0])
        s1 = np.concatenate(([0.0], np.cumsum(c)))
        s2 = np.concatenate(([0.0], np.cumsum(c * c)))
        sse = initialization._sse
        i, j = (cand[k] for k in np.triu_indices(cand.size, 1))
        best = np.argmin(sse(s1, s2, 0, i) + sse(s1, s2, i, j) + sse(s1, s2, j, n))
        cuts = (int(i[best]), int(j[best]))
        for _ in range(initialization._MAX_LLOYD_ITER):
            bounds = (0, *cuts, n)
            m = [(s1[hi] - s1[lo]) / (hi - lo) for lo, hi in zip(bounds, bounds[1:])]
            new = tuple(c.searchsorted([(m[0] + m[1]) / 2, (m[1] + m[2]) / 2]).tolist())
            if new == cuts or not 0 < new[0] < new[1] < n:
                break
            cuts = new
    else:
        cuts = (xs.searchsorted(0.0, side="left"), xs.searchsorted(0.0, side="right"))
    lo, hi = np.append(xs, np.inf)[list(cuts)]
    assignments = (x >= lo).astype(int) + (x >= hi)
    means = np.empty(3)
    variances = np.full(3, initialization._VAR_FLOOR)
    counts = np.zeros(3, dtype=int)
    for j in range(3):
        member = x[assignments == j]
        counts[j] = member.size
        if member.size:
            means[j] = member.mean()
            variances[j] = max(member.var(), initialization._VAR_FLOOR)
    full = np.flatnonzero(counts)
    for j in np.flatnonzero(counts == 0):
        means[j] = means[full[np.argmin(np.abs(full - j))]]
    return initialization.KMeansResult(means.copy(), assignments, means, variances, counts)


@st.composite
def tie_runs(draw):
    """Tie-heavy data with n from 3 to 5000: a few levels, runs about as long
    as a quantile bin (so they cross bin edges), one value filling 127/128 of
    the data, two distinct values, or continuous values; in shuffled order."""
    n = draw(st.integers(3, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("levels", "bin_runs", "dominant", "two", "continuous")))
    if kind == "levels":
        x = rng.integers(-3, 4, n).astype(float)
    elif kind == "bin_runs":
        lengths = rng.integers(1, 2 * max(1, n // 128) + 2, n)
        x = np.repeat(np.arange(n, dtype=float), lengths)[:n]
    elif kind == "dominant":
        x = np.full(n, float(rng.integers(-5, 6)))
        rest = max(3, n // 128) if n > 3 else 2
        x[:rest] = rng.integers(-20, 21, rest)
    elif kind == "two":
        values = rng.normal(size=2)
        x = rng.choice(values, n)
        x[:2] = values
    else:
        x = rng.normal(rng.choice([-3.0, 0.0, 3.0], n, p=[0.1, 0.8, 0.1]), 1.0)
    return rng.permutation(x) * draw(st.sampled_from((1.0, -0.5, 2.0**-500)))


@SETTINGS
@given(tie_runs())
def test_candidate_cuts_match_the_valid_array_rule(x):
    xs = np.sort(x)
    valid = np.flatnonzero(xs[1:] != xs[:-1]) + 1
    first, last = int(xs.searchsorted(xs[0], "right")), int(xs.searchsorted(xs[-1], "left"))
    assert (first < last) == (valid.size >= 2)
    if valid.size >= 2:
        assert (first, last) == (valid[0], valid[-1])
        expected = _reference_candidates(xs)[1]
        cand = initialization._candidate_cuts(xs, first, last)
        assert cand.dtype == expected.dtype
        assert np.array_equal(cand, expected)


@SETTINGS
@given(tie_runs())
def test_kmeans_result_is_bit_identical_to_the_reference(x):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        km = kmeans_1d(x, 3)
    reference = _reference_kmeans(x)
    for name in ("centers", "assignments", "cluster_means", "cluster_vars", "cluster_counts"):
        mine, theirs = getattr(km, name), getattr(reference, name)
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape, name
        assert mine.tobytes() == theirs.tobytes(), name
