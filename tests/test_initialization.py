import warnings

import numpy as np
import pytest

from gigmix.cli import main
from gigmix.distributions import GAMMA_NEG, GAMMA_POS, INVGAMMA_NEG, INVGAMMA_POS
from gigmix.experiments import MODEL_NAMES
from gigmix.initialization import KMeansResult, init_mixture, kmeans_1d
from gigmix.io import write_values_txt


def separable_data(seed=0, n=300):
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [
            rng.normal(-5.0, 0.05, n),
            rng.normal(0.0, 0.05, n),
            rng.normal(5.0, 0.05, n),
        ]
    )


def test_kmeans_separates_well_separated_triples():
    x = separable_data()
    km = kmeans_1d(x, 3, seed=1)
    assert np.allclose(km.centers, [-5.0, 0.0, 5.0], atol=0.05)
    assert list(km.cluster_counts) == [300, 300, 300]
    # Clusters come back sorted by center.
    assert np.all(np.diff(km.centers) > 0)


def test_kmeans_deterministic_given_seed():
    # The seed is accepted for compatibility: every seed gives the same result.
    x = separable_data(seed=3)
    a = kmeans_1d(x, 3, seed=7)
    for seed in (7, 0, 2**31 - 1):
        b = kmeans_1d(x, 3, seed=seed)
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.assignments, b.assignments)


def _lloyd_sse(x, centers):
    d = np.abs(x[:, None] - centers[None, :])
    assign = d.argmin(axis=1)
    for _ in range(200):
        new_centers = centers.copy()
        for j in range(centers.size):
            member = x[assign == j]
            if member.size:
                new_centers[j] = member.mean()
        new_assign = np.abs(x[:, None] - new_centers[None, :]).argmin(axis=1)
        if np.array_equal(new_assign, assign):
            break
        centers, assign = new_centers, new_assign
    return np.sum((x - centers[assign]) ** 2)


def test_kmeans_near_optimal_on_small_instance():
    # Brute-force oracle: best of many random-restart Lloyd runs.
    rng = np.random.default_rng(13)
    x = np.sort(rng.normal(0.0, 1.0, 30) + rng.choice([-3.0, 0.0, 3.0], 30))
    best = np.inf
    for _ in range(200):
        centers = rng.choice(x, 3, replace=False)
        best = min(best, _lloyd_sse(x, centers.astype(float)))
    km = kmeans_1d(x, 3, seed=5)
    mine = np.sum((x - km.centers[km.assignments]) ** 2)
    assert mine <= 1.05 * best


def test_kmeans_degenerate_constant_data():
    x = np.full(50, 2.5)
    with pytest.warns(UserWarning):
        km = kmeans_1d(x, 3, seed=0)
    assert np.allclose(km.centers, 2.5)
    assert km.cluster_vars.min() > 0
    assert km.cluster_counts.sum() == 50


@pytest.mark.parametrize(
    "values, counts, means",
    [
        ([0.1, 5.0, 5.0, 0.1, 0.1, 5.0], [0, 0, 6], [2.55, 2.55, 2.55]),
        ([0.0, 0.0, 0.1, 0.1, 0.1, 0.0], [0, 3, 3], [0.0, 0.0, 0.1]),
        ([2.5] * 50, [0, 0, 50], [2.5, 2.5, 2.5]),
        ([-1.0, -1.0, 5.0, 5.0], [2, 0, 2], [-1.0, -1.0, 5.0]),
    ],
)
def test_fewer_than_three_distinct_values_split_by_sign(tmp_path, values, counts, means):
    # Negatives, zeros and positives; an empty cluster takes the center of
    # its nearest non-empty one (the lower on a tie) and the floored variance.
    x = np.asarray(values)
    with pytest.warns(UserWarning, match="fewer than 3 distinct"):
        km = kmeans_1d(x, 3)
    assert list(km.cluster_counts) == counts
    assert np.allclose(km.cluster_means, means, rtol=1e-15, atol=0.0)
    assert np.array_equal(km.cluster_vars[km.cluster_counts == 0], [1e-6] * counts.count(0))
    assert np.array_equal(km.assignments, 1 + np.sign(x).astype(int))
    # Every model fits from this start.
    assert_every_model_fits(tmp_path, x)


@pytest.mark.parametrize(
    "values, counts",
    [
        ([0.0] * 995 + [1.0, 2.0, 3.0, 4.0, 5.0], [996, 2, 2]),
        ([1.0, 2.0, 3.0, 4.0, 5.0] + [10.0] * 995, [2, 3, 995]),
    ],
)
def test_one_value_filling_the_data_is_clustered_and_fitted(tmp_path, values, counts):
    # Above 128 points every quantile-bin edge falls on the same cut here.
    x = np.asarray(values)
    assert list(kmeans_1d(x, 3).cluster_counts) == counts
    assert_every_model_fits(tmp_path, x)


def assert_every_model_fits(tmp_path, x):
    path = tmp_path / "values.txt"
    write_values_txt(path, x)
    for model in MODEL_NAMES:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = main(["fit", "--model", model, "--input", str(path), "--output", str(tmp_path / "r.json")])
        assert rc == 0, model


def test_kmeans_rejects_tiny_or_bad_input():
    with pytest.raises(ValueError):
        kmeans_1d(np.array([1.0, 2.0]), 3)
    with pytest.raises(ValueError):
        kmeans_1d(np.array([1.0, np.nan, 2.0, 3.0]), 3)
    with pytest.raises(ValueError, match="k=3"):
        kmeans_1d(np.array([1.0, 2.0, 3.0, 4.0]), 2)


def test_init_mixture_mapping_and_gamma():
    x = separable_data(seed=9)
    km = kmeans_1d(x, 3, seed=2)
    params, gamma = init_mixture(x, km, (GAMMA_POS, GAMMA_NEG))
    assert params.comp1.mu == pytest.approx(0.0, abs=0.05)
    assert params.comp2.family is GAMMA_POS
    assert params.comp3.family is GAMMA_NEG
    # Gamma moments of the mirrored low cluster: mean 5, tiny variance.
    assert params.comp3.shape / params.comp3.rate == pytest.approx(5.0, abs=0.05)
    assert np.allclose(gamma.sum(axis=1), 1.0, atol=1e-12)
    # Initialization alone should classify the sign regions correctly.
    hard = gamma.argmax(axis=1)
    truth = np.repeat([2, 0, 1], 300)
    assert np.mean(hard == truth) >= 0.95


def test_init_mixture_middle_cluster_stats_pass_through():
    km = KMeansResult(
        centers=np.array([-4.0, 0.01, 4.0]),
        assignments=np.zeros(9, dtype=int),
        cluster_means=np.array([-4.0, 0.01, 4.0]),
        cluster_vars=np.array([1.0, 1.0, 1.0]),
        cluster_counts=np.array([3, 3, 3]),
    )
    data = np.array([-4.1, -4.0, -3.9, 0.0, 0.01, 0.02, 3.9, 4.0, 4.1])
    params, _ = init_mixture(data, km, (INVGAMMA_POS, INVGAMMA_NEG))
    assert params.comp1.mu == 0.01
    assert params.comp1.tau == 1.0


def test_init_mixture_invgamma_uses_method_of_moments():
    km = KMeansResult(
        centers=np.array([-10.0, 0.0, 10.0]),
        assignments=np.zeros(3, dtype=int),
        cluster_means=np.array([-10.0, 0.0, 10.0]),
        cluster_vars=np.array([10.0, 1.0, 10.0]),
        cluster_counts=np.array([1, 1, 1]),
    )
    data = np.array([-10.0, 0.0, 10.0])
    params, _ = init_mixture(data, km, (INVGAMMA_POS, INVGAMMA_NEG))
    assert (params.comp2.shape, params.comp2.rate) == (12.0, 110.0)
    assert (params.comp3.shape, params.comp3.rate) == (12.0, 110.0)


def test_init_mixture_falls_back_when_side_cluster_has_wrong_sign():
    # All-positive data: the lowest cluster has a positive mean, so the
    # mirrored mean is negative and component 3 falls back to the defaults.
    rng = np.random.default_rng(21)
    x = rng.uniform(0.5, 6.0, 200)
    km = kmeans_1d(x, 3, seed=1)
    params, gamma = init_mixture(x, km, (GAMMA_POS, GAMMA_NEG))
    assert (params.comp3.shape, params.comp3.rate) == (10.0, 1.0)
    assert np.allclose(gamma.sum(axis=1), 1.0)
    assert np.all(gamma[:, 2] == 0.0)  # no negative-support mass on x > 0
