"""K-means based initialization shared by all four mixture fitters.

A seeded 1-D k-means (k-means++ seeding, Lloyd iterations) splits the data
into three clusters sorted by center. The middle cluster seeds the Gaussian,
the outer ones seed the activation components through the method of moments
on (mirrored) cluster statistics (``init_params``); ``init_mixture`` adds the
responsibilities of the shared E-step kernel under those parameters.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import GaussianParams, MixtureParams, mom_gamma, mom_invgamma
from .estep import e_step, finite_data

_VAR_FLOOR = 1e-6
_MAX_LLOYD_ITER = 100

# Fallback prior-style moments for a side cluster whose mirrored mean is not
# positive (e.g. no negative cluster in very sparse data).
_FALLBACK_MEAN = 10.0
_FALLBACK_VAR = 10.0


@dataclass
class KMeansResult:
    centers: np.ndarray
    assignments: np.ndarray
    cluster_means: np.ndarray
    cluster_vars: np.ndarray
    cluster_counts: np.ndarray


def _kmeanspp_seed(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centers = np.empty(k)
    centers[0] = x[rng.integers(x.size)]
    d2 = np.full(x.size, np.inf)
    for j in range(1, k):
        np.minimum(d2, (x - centers[j - 1]) ** 2, out=d2)
        total = d2.sum()
        if total > 0:
            centers[j] = x[rng.choice(x.size, p=d2 / total)]
        else:
            centers[j] = x[rng.integers(x.size)]
    return centers


def _nearest(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest center per point, ties to the lowest index."""
    best = np.abs(x - centers[0])
    labels = np.zeros(x.size, dtype=int)
    for j in range(1, centers.size):
        d = np.abs(x - centers[j])
        labels[d < best] = j
        np.minimum(best, d, out=best)
    return labels


def _sorted_runs(xs: np.ndarray, centers: np.ndarray):
    """Nearest-center labels of sorted data as runs ``(starts, labels)``.

    Both are tuples of ints. Run ``r`` covers ``xs[starts[r]:starts[r + 1]]``;
    runs are non-empty and neighbouring runs carry different labels, so equal
    labelings give equal runs. The labels are exactly those of ``_nearest``
    (float distances, ties to the lowest index). Between two neighbouring
    distinct centers the rounded distance comparison is monotone in x, so
    each boundary is a binary search. A farther center can only tie the
    nearest one when two centers are equal or within rounding of the largest
    distance; then clusters need not be contiguous and every point is
    labelled.
    """
    order = np.argsort(centers, kind="stable")
    values, labels = centers[order].tolist(), order.tolist()
    span = max(abs(xs.item(-1) - values[0]), abs(values[-1] - xs.item(0)))
    if not all(b - a > 2.0 * math.ulp(span) for a, b in zip(values, values[1:])):
        point_labels = _nearest(xs, centers)
        starts = np.flatnonzero(np.concatenate(([True], point_labels[1:] != point_labels[:-1])))
        return tuple(starts.tolist()), tuple(point_labels[starts].tolist())
    los = xs.searchsorted(values[:-1], side="right").tolist()
    his = xs.searchsorted(values[1:], side="left").tolist()
    bounds = [0]
    for i, (lo, hi) in enumerate(zip(los, his)):
        left, right = values[i], values[i + 1]
        right_wins_ties = labels[i + 1] < labels[i]
        # First point that goes to the right center.
        while lo < hi:
            mid = (lo + hi) // 2
            x = xs.item(mid)
            d_left, d_right = abs(x - left), abs(x - right)
            if d_right < d_left or (d_right == d_left and right_wins_ties):
                hi = mid
            else:
                lo = mid + 1
        bounds.append(lo)
    bounds.append(xs.size)
    starts, labels = zip(*((lo, j) for lo, hi, j in zip(bounds, bounds[1:], labels) if lo < hi))
    return starts, labels


def _assign(x: np.ndarray, xs: np.ndarray, starts, labels) -> np.ndarray:
    """Per-point labels of ``x`` from the runs of its sorted copy ``xs``."""
    return np.asarray(labels)[np.searchsorted(xs[list(starts[1:])], x, side="right")]


def kmeans_1d(data, k: int = 3, seed: int = 0) -> KMeansResult:
    """Lloyd's algorithm on scalars with k-means++ seeding.

    Deterministic given ``seed``; clusters are returned sorted by center
    ascending. Degenerate all-equal data collapses to a single cluster
    duplicated ``k`` times with a floored variance.

    In 1-D every cluster is a contiguous run of the sorted data, so the data
    are sorted once and each Lloyd step finds the cluster boundaries by
    binary search and the new centers as slice means. Each step assigns
    every point to its nearest center, ties to the lowest cluster index.
    The slice means can differ from means over the points in input order by
    rounding, so a point that ties two centers to the last bit can fall the
    other way; the final cluster statistics are taken over the points in
    input order.
    """
    x = finite_data(data)
    if x.size < k:
        raise ValueError(f"need at least k={k} samples, got {x.size}")

    if np.ptp(x) == 0.0:
        warnings.warn("k-means input is constant; duplicating a single cluster")
        v = float(x[0])
        assignments = np.full(x.size, k // 2, dtype=int)
        counts = np.zeros(k, dtype=int)
        counts[k // 2] = x.size
        return KMeansResult(
            centers=np.full(k, v),
            assignments=assignments,
            cluster_means=np.full(k, v),
            cluster_vars=np.full(k, _VAR_FLOOR),
            cluster_counts=counts,
        )

    rng = np.random.default_rng(seed)
    centers = _kmeanspp_seed(x, k, rng)
    xs = np.sort(x)
    runs = None
    for _ in range(_MAX_LLOYD_ITER):
        starts, labels = _sorted_runs(xs, centers)
        if (starts, labels) == runs:
            break
        runs = starts, labels
        sums = [0.0] * k
        counts = [0] * k
        for lo, hi, j in zip(starts, starts[1:] + (xs.size,), labels):
            sums[j] += float(xs[lo:hi].sum())
            counts[j] += hi - lo
        assignments = None
        for j in range(k):
            if counts[j]:
                centers[j] = sums[j] / counts[j]
            else:
                # Reseed an empty cluster at the point farthest from its center.
                if assignments is None:
                    assignments = _assign(x, xs, starts, labels)
                centers[j] = x[np.argmax(np.abs(x - centers[assignments]))]

    order = np.argsort(centers, kind="stable")
    centers = centers[order]
    remap = np.empty(k, dtype=int)
    remap[order] = np.arange(k)
    assignments = remap[_assign(x, xs, *runs)]

    means = np.empty(k)
    variances = np.empty(k)
    counts = np.zeros(k, dtype=int)
    for j in range(k):
        member = x[assignments == j]
        counts[j] = member.size
        if member.size:
            means[j] = member.mean()
            variances[j] = max(member.var(), _VAR_FLOOR)
        else:
            means[j] = centers[j]
            variances[j] = _VAR_FLOOR
    return KMeansResult(centers, assignments, means, variances, counts)


def _side_component(mean: float, variance: float, family):
    mom = mom_gamma if family.kind == "gamma" else mom_invgamma
    if mean > 0:
        return mom(mean, variance, sign=family.sign)
    return mom(_FALLBACK_MEAN, _FALLBACK_VAR, sign=family.sign)


def init_params(km: KMeansResult, families) -> MixtureParams:
    """Map sorted clusters to mixture parameters.

    The highest-center cluster always becomes component 2 and the lowest
    component 3, with moments mirrored for the negative side.
    """
    pos_family, neg_family = families
    if pos_family.sign != 1 or neg_family.sign != -1:
        raise ValueError("families must be (positive-support, negative-support)")

    comp1 = GaussianParams(float(km.cluster_means[1]), 1.0 / float(km.cluster_vars[1]))
    comp2 = _side_component(float(km.cluster_means[2]), float(km.cluster_vars[2]), pos_family)
    comp3 = _side_component(-float(km.cluster_means[0]), float(km.cluster_vars[0]), neg_family)
    counts = km.cluster_counts.astype(float)
    pi = np.array([counts[1], counts[2], counts[0]]) / counts.sum()
    return MixtureParams(pi, comp1, comp2, comp3)


def init_mixture(data, km: KMeansResult, families):
    """The ``init_params`` point estimate together with the responsibilities
    of one E-step under it."""
    params = init_params(km, families)
    return params, e_step(data, params)
