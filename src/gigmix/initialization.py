"""The two starts of the mixture fitters: the noise core and k-means.

The ML fitters start from the noise core (``core_params``), which takes as
activation only what lies beyond three robust scales (``robust_scale``) of
the median. The variational fitters start from k-means (``kmeans_params``):
a deterministic 1-D 3-means (``kmeans_1d``) splits the data into three
clusters sorted by center, the middle one seeds the Gaussian and the outer
ones seed the activation components through the method of moments on
(mirrored) cluster statistics (``init_params``); ``init_mixture`` adds the
responsibilities of the shared E-step kernel under those parameters.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import GaussianParams, MixtureParams
from .estep import e_step, finite_data

_VAR_FLOOR = 1e-6
_MAX_LLOYD_ITER = 100
# Equal-count bins whose edges are the cut candidates of the exact search:
# 127 candidates make about 8000 cut pairs.
_BINS = 128

# Fallback prior-style moments for a side cluster whose mirrored mean is not
# positive (e.g. no negative cluster in very sparse data).
_FALLBACK_MEAN = 10.0
_FALLBACK_VAR = 10.0

# 1.4826 times the median absolute deviation estimates a Gaussian's standard
# deviation.
_MAD_TO_SD = 1.4826
# The noise core holds the samples within this many scales of the median.
_CORE_WIDTH = 3.0
# A side with fewer samples beyond the core takes the fallback moments.
_MIN_SIDE = 3


@dataclass
class KMeansResult:
    centers: np.ndarray
    assignments: np.ndarray
    cluster_means: np.ndarray
    cluster_vars: np.ndarray
    cluster_counts: np.ndarray


def _sse(s1, s2, lo, hi):
    """Within-cluster sum of squares of the sorted slices ``[lo, hi)``, from
    prefix sums ``s1`` of the data and ``s2`` of its squares."""
    return s2[hi] - s2[lo] - (s1[hi] - s1[lo]) ** 2 / (hi - lo)


def _candidate_cuts(xs: np.ndarray, first: int, last: int) -> np.ndarray:
    """Sorted candidate cuts of the sorted data ``xs`` for the search in
    ``_three_means_cuts``; ``first`` and ``last`` are the first and last
    valid cuts (the end of the first run of equal values and the start of
    the last), with ``first < last``.

    A valid cut is an index where a new value starts, so that no cut splits
    a run of equal values. For each edge e of ``_BINS`` equal-count bins the
    candidate is the nearest valid cut at or below e in the lower half of the
    data, found as the start of the run holding ``xs[floor(e)]``, and at or
    above e in the upper half, found as the end of the run holding
    ``xs[ceil(e) - 1]``, so mirrored data get mirrored candidates. A run that
    starts at 0 or ends at n has no such cut, and the candidate is ``first``
    or ``last`` instead; both are always candidates, since when one value
    fills most of the data every edge can map to the same cut. For
    n <= ``_BINS`` every valid cut is one, and the search is exact.
    """
    n = xs.size
    edges = np.arange(1, _BINS) * (n / _BINS)
    low, high = edges[edges <= n / 2], edges[edges >= n / 2]
    starts = xs.searchsorted(xs[np.floor(low).astype(int)], "left")
    ends = xs.searchsorted(xs[np.ceil(high).astype(int) - 1], "right")
    return np.unique(np.clip(np.concatenate(([first, last], starts, ends)), first, last))


def _three_means_cuts(xs: np.ndarray, first: int, last: int) -> tuple:
    """Cuts ``(a, b)`` that split sorted data into ``xs[:a]``, ``xs[a:b]``
    and ``xs[b:]``, from the first and last valid cuts (``_candidate_cuts``).

    In 1-D the optimal clusters are contiguous runs of the sorted data.
    Every pair of ``_candidate_cuts`` is searched for the least total sum of
    squares. Lloyd steps from the best pair then move both cuts to the
    midpoints of the cluster means until they stop. The data are centred and
    divided by their range first, so the cuts do not change when the data
    are multiplied by a power of two.
    """
    n = xs.size
    c = xs - xs.mean()
    c /= xs[-1] - xs[0]
    # Prefix sums of c and c*c, with a leading 0, written in place.
    s1, s2 = np.empty(n + 1), np.empty(n + 1)
    s1[0] = s2[0] = 0.0
    np.cumsum(c, out=s1[1:])
    np.multiply(c, c, out=s2[1:])
    np.cumsum(s2[1:], out=s2[1:])
    cand = _candidate_cuts(xs, first, last)
    i, j = (cand[k] for k in np.triu_indices(cand.size, 1))
    best = np.argmin(_sse(s1, s2, 0, i) + _sse(s1, s2, i, j) + _sse(s1, s2, j, n))
    cuts = (int(i[best]), int(j[best]))
    for _ in range(_MAX_LLOYD_ITER):
        bounds = (0, *cuts, n)
        m = [(s1[hi] - s1[lo]) / (hi - lo) for lo, hi in zip(bounds, bounds[1:])]
        new = tuple(c.searchsorted([(m[0] + m[1]) / 2, (m[1] + m[2]) / 2]).tolist())
        # A step that would empty a cluster is not taken.
        if new == cuts or not 0 < new[0] < new[1] < n:
            break
        cuts = new
    return cuts


def kmeans_1d(data, k: int = 3, seed: int = 0) -> KMeansResult:
    """Deterministic 3-means on scalars; clusters sorted by center ascending.

    ``k`` must be 3. ``seed`` is accepted for compatibility; the result does
    not depend on it. The cut search is ``_three_means_cuts``. With fewer
    than three distinct values the clusters are the support sides instead:
    negatives, zeros and positives. The cluster statistics are taken over the
    points in input order; ``centers`` are the cluster means. An empty
    cluster gets the center of its nearest non-empty one (the lower one on a
    tie) and the floored variance.
    """
    if k != 3:
        raise ValueError(f"kmeans_1d fits k=3 clusters, got k={k}")
    x = finite_data(data)
    if x.size < k:
        raise ValueError(f"need at least k={k} samples, got {x.size}")

    xs = np.sort(x)
    # The end of the first run of equal values and the start of the last:
    # at least three distinct values leave a run between them.
    first, last = xs.searchsorted(xs[0], "right"), xs.searchsorted(xs[-1], "left")
    if first < last:
        cuts = _three_means_cuts(xs, first, last)
    else:
        warnings.warn("k-means input has fewer than 3 distinct values; splitting it by sign")
        cuts = (xs.searchsorted(0.0, side="left"), xs.searchsorted(0.0, side="right"))
    # No cut splits equal values, so the first value after each cut labels x.
    lo, hi = (xs[cut] if cut < xs.size else np.inf for cut in cuts)
    at_lo, at_hi = x >= lo, x >= hi
    assignments = at_lo.astype(int) + at_hi

    means = np.empty(k)
    variances = np.full(k, _VAR_FLOOR)
    counts = np.zeros(k, dtype=int)
    # hi >= lo, so at_hi implies at_lo and the middle cluster is at_lo ^ at_hi.
    for j, mask in enumerate((~at_lo, at_lo ^ at_hi, at_hi)):
        member = x.take(np.flatnonzero(mask))
        counts[j] = member.size
        if member.size:
            means[j] = member.mean()
            variances[j] = max(member.var(), _VAR_FLOOR)
    full = np.flatnonzero(counts)
    for j in np.flatnonzero(counts == 0):
        means[j] = means[full[np.argmin(np.abs(full - j))]]
    return KMeansResult(means.copy(), assignments, means, variances, counts)


def _side_component(mean: float, variance: float, family):
    """The method-of-moments component of ``family`` with this (mirrored)
    mean and variance, or with the fallback moments when either is not
    positive."""
    if mean > 0 and variance > 0:
        return family.moments(mean, variance)
    return family.moments(_FALLBACK_MEAN, _FALLBACK_VAR)


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


def kmeans_params(data, families) -> MixtureParams:
    """The k-means start: ``init_params`` of the deterministic 3-means."""
    return init_params(kmeans_1d(data, 3), families)


def _mad(x: np.ndarray, center: float) -> float:
    return _MAD_TO_SD * float(np.median(np.abs(x - center)))


def _median_and_scale(x: np.ndarray) -> tuple:
    """The median of finite data ``x`` and ``robust_scale(x)``."""
    if x.size < 3 or not np.any((x > x.min()) & (x < x.max())):
        return None, None
    center = float(np.median(x))
    scale = _mad(x, center)
    if scale == 0.0:
        nonzero = x[x != 0.0]
        scale = _mad(nonzero, float(np.median(nonzero)))
    return center, (scale if 0.0 < scale < np.inf else None)


def robust_scale(data) -> float | None:
    """The noise scale of finite data: the MAD, 1.4826 * median|x - median x|,
    which the activation in the tails barely moves.

    When half the data share one value the MAD is 0, and the scale is then
    the MAD of the nonzero values (a fit's start skips a masked map's zeros
    already). None when no positive finite scale exists: with fewer than
    three distinct values, or when the nonzero values' MAD is 0 as well.
    Multiplying the data by a power of two multiplies the scale by the same
    power exactly, barring under- and overflow.
    """
    return _median_and_scale(finite_data(data))[1]


def core_params(data, families) -> MixtureParams:
    """The noise-core start of the ML fitters: the Gaussian at the median
    with precision 1 / ``robust_scale``**2; each activation side by the
    method of moments on the (mirrored) samples more than three scales beyond
    the median on that side, or by the fallback moments when fewer than three
    lie there or they have no spread; pi from those counts. Data without a
    scale, or whose core leaves the floating-point range (at scales beyond
    about 1e+-150), get the k-means start, ``kmeans_params``.
    """
    x = finite_data(data)
    center, scale = _median_and_scale(x)
    if scale is not None:
        width = _CORE_WIDTH * scale
        upper, lower = x[x > center + width], -x[x < center - width]
        n = x.size
        pi = [(n - upper.size - lower.size) / n, upper.size / n, lower.size / n]
        try:
            with np.errstate(over="ignore"):
                comp2, comp3 = _core_side(upper, families[0]), _core_side(lower, families[1])
            return MixtureParams(pi, GaussianParams(center, 1.0 / (scale * scale)), comp2, comp3)
        except (ValueError, ZeroDivisionError):
            pass
    return kmeans_params(x, families)


def _core_side(z: np.ndarray, family):
    """``_side_component`` of the mirrored samples ``z`` beyond the core on
    one side; fewer than ``_MIN_SIDE`` of them take the fallback moments."""
    if z.size < _MIN_SIDE:
        return _side_component(0.0, 0.0, family)
    return _side_component(float(z.mean()), float(z.var()), family)
