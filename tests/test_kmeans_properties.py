"""Property tests: the sorted-data k-means against a dense Lloyd oracle.

The oracle is the straightforward implementation: an N x k distance matrix,
``argmin`` assignment (ties to the lowest index) and gathered cluster means on
every Lloyd step. ``kmeans_1d`` must reproduce its seeded centers exactly and
its assignments and counts exactly. Cluster means and variances of non-empty
clusters are taken from the same gathered members, so they match exactly as
well; the centers are slice means and may differ by rounding.

Exactness of the assignments holds wherever a tie between two centers does
not hinge on the last bit of a center. The tie-heavy inputs (duplicates,
points at midpoints) are therefore integers times a power of two, whose
cluster sums are exact in any order; the other inputs are continuous draws,
on which exact ties have probability zero.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gigmix.experiments import SyntheticSpec, generate
from gigmix.initialization import _kmeanspp_seed, _nearest, _sorted_runs, kmeans_1d

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def dense_seed(x, k, rng):
    centers = np.empty(k)
    centers[0] = x[rng.integers(x.size)]
    for j in range(1, k):
        d2 = np.min((x[:, None] - centers[None, :j]) ** 2, axis=1)
        total = d2.sum()
        if total > 0:
            centers[j] = x[rng.choice(x.size, p=d2 / total)]
        else:
            centers[j] = x[rng.integers(x.size)]
    return centers


def dense_kmeans(x, k, seed):
    """Dense Lloyd oracle; returns (centers, assignments, means, vars, counts, reseeds)."""
    centers = dense_seed(x, k, np.random.default_rng(seed))
    assignments = np.full(x.size, -1, dtype=int)
    reseeds = 0
    for _ in range(100):
        new_assignments = np.argmin(np.abs(x[:, None] - centers[None, :]), axis=1)
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        for j in range(k):
            member = assignments == j
            if member.any():
                centers[j] = x[member].mean()
            else:
                reseeds += 1
                centers[j] = x[np.argmax(np.abs(x - centers[assignments]))]
    order = np.argsort(centers, kind="stable")
    centers = centers[order]
    remap = np.empty(k, dtype=int)
    remap[order] = np.arange(k)
    assignments = remap[assignments]
    means, variances, counts = np.empty(k), np.empty(k), np.zeros(k, dtype=int)
    for j in range(k):
        member = x[assignments == j]
        counts[j] = member.size
        if member.size:
            means[j] = member.mean()
            variances[j] = max(member.var(), 1e-6)
        else:
            means[j] = centers[j]
            variances[j] = 1e-6
    return centers, assignments, means, variances, counts, reseeds


def assert_matches_oracle(x, seed):
    centers, assignments, means, variances, counts, reseeds = dense_kmeans(x, 3, seed)
    km = kmeans_1d(x, 3, seed)
    assert np.array_equal(km.assignments, assignments)
    assert np.array_equal(km.cluster_counts, counts)
    full = counts > 0
    assert np.array_equal(km.cluster_means[full], means[full])
    assert np.array_equal(km.cluster_vars[full], variances[full])
    # Slice and gathered sums differ by rounding of the summation order only.
    tol = 4 * np.log2(x.size + 1) * np.spacing(np.max(np.abs(x)))
    assert np.all(np.abs(km.centers - centers) <= tol)
    assert np.all(np.abs(km.cluster_means - means) <= tol)
    return reseeds


# Integers times a power of two: exact cluster sums, many ties, duplicates and
# points exactly at midpoints; 2**+-500 is about 1e+-150.
_DYADIC_SCALES = (1.0, -1.0, 0.125, 2.0**-500, 2.0**500)


@st.composite
def exact_data(draw, lo=-8, hi=8):
    values = draw(st.lists(st.integers(lo, hi), min_size=3, max_size=60))
    scale = draw(st.sampled_from(_DYADIC_SCALES))
    return np.asarray(values, dtype=float) * scale


@st.composite
def continuous_data(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 400))
    kind = draw(st.sampled_from(("mixture", "cauchy", "t", "lognormal")))
    if kind == "mixture":
        x = rng.normal(rng.choice([-3.0, 0.0, 3.0], n, p=[0.1, 0.8, 0.1]), 1.0)
    elif kind == "cauchy":
        x = rng.standard_cauchy(n)
    elif kind == "t":
        x = rng.standard_t(1.5, n)
    else:
        x = rng.lognormal(0.0, 2.0, n)  # one-sided, heavy right tail
    return x * draw(st.sampled_from((1.0, 1e-150, 1e150)))


def _not_constant(x):
    return np.ptp(x) > 0


@SETTINGS
@given(exact_data(), st.integers(0, 2**31 - 1))
def test_seeding_identical_to_dense(x, seed):
    a = _kmeanspp_seed(x, 3, np.random.default_rng(seed))
    b = dense_seed(x, 3, np.random.default_rng(seed))
    assert np.array_equal(a, b)


@SETTINGS
@given(continuous_data(), st.integers(0, 2**31 - 1))
def test_seeding_identical_to_dense_continuous(x, seed):
    a = _kmeanspp_seed(x, 3, np.random.default_rng(seed))
    b = dense_seed(x, 3, np.random.default_rng(seed))
    assert np.array_equal(a, b)


@SETTINGS
@given(exact_data().filter(_not_constant), st.integers(0, 2**31 - 1))
def test_matches_oracle_on_ties_and_duplicates(x, seed):
    assert_matches_oracle(x, seed)


@SETTINGS
@given(exact_data(lo=0, hi=12).filter(_not_constant), st.integers(0, 2**31 - 1))
def test_matches_oracle_on_one_sided_data(x, seed):
    assert_matches_oracle(x, seed)


@SETTINGS
@given(
    st.lists(st.integers(-3, 3), min_size=3, max_size=3).map(lambda v: np.asarray(v, dtype=float)).filter(_not_constant),
    st.integers(0, 2**31 - 1),
)
def test_matches_oracle_on_three_points(x, seed):
    assert_matches_oracle(x, seed)


@SETTINGS
@given(continuous_data(), st.integers(0, 2**31 - 1))
def test_matches_oracle_on_heavy_tails_and_extreme_scales(x, seed):
    assert_matches_oracle(x, seed)


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
    assert assert_matches_oracle(np.asarray(x), seed) > 0


@pytest.mark.parametrize(
    "dataset, snr, sparsity, n, data_seed, fit_seed",
    [
        (1, 2.0, 1, 10_000, 0, 1),
        (1, 5.0, 3, 10_000, 1, 2),
        (2, 3.0, 2, 10_000, 2, 3),
        (1, 2.0, 1, 300_000, 10, 11),
    ],
)
def test_matches_oracle_on_benchmark_maps(dataset, snr, sparsity, n, data_seed, fit_seed):
    spec = SyntheticSpec(dataset=dataset, snr=snr, sparsity=sparsity, n=n, repeats=1, seed=data_seed)
    assert_matches_oracle(generate(spec, 0, 0).values, fit_seed)


# The assignment step alone, on arbitrary centers: equal centers, centers one
# ulp apart, and points so far away that distances to distinct centers round
# equal, which makes clusters non-contiguous.
_BASES = (0.0, 1.0, -2.0, 3.0, 1e16)


@st.composite
def points_and_centers(draw):
    base = draw(st.sampled_from(_BASES))
    pool = [base, np.nextafter(base, np.inf), np.nextafter(base, -np.inf), base + 1.0,
            base - 3.0, 1e17 * base + 1.0, -1e17 * base - 2.0]
    xs = np.sort(np.asarray(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))))
    centers = np.asarray(draw(st.lists(st.sampled_from(pool + list(xs)), min_size=3, max_size=3)))
    return xs, centers


def _runs_to_labels(xs, starts, labels):
    return np.repeat(labels, np.diff(np.append(starts, xs.size)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(points_and_centers())
def test_sorted_runs_equal_dense_argmin(case):
    xs, centers = case
    dense = np.argmin(np.abs(xs[:, None] - centers[None, :]), axis=1)
    starts, labels = _sorted_runs(xs, centers)
    assert starts[0] == 0 and all(a < b for a, b in zip(starts, starts[1:]))
    assert all(a != b for a, b in zip(labels, labels[1:]))
    assert np.array_equal(_runs_to_labels(xs, starts, labels), dense)
    assert np.array_equal(_nearest(xs, centers), dense)


def test_sorted_runs_non_contiguous_clusters():
    # |-2 - (1 + 2**-52)| rounds to 3 = |-2 - 1|: the tie goes to index 0.
    xs = np.array([-2.0, 1.0, 1.0 + 2.0**-52])
    centers = np.array([1.0 + 2.0**-52, 1.0, 10.0])
    starts, labels = _sorted_runs(xs, centers)
    assert starts == (0, 1, 2)
    assert labels == (0, 1, 0)
