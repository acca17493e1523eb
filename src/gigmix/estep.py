"""The one E-step kernel shared by all four learners and the initialization.

Each sample competes only between the Gaussian and the activation component
on its own side of zero, and an exact zero is masked. The kernel runs
one two-way softmax per support side, each over its side record (``_Side``,
built once per fit; the negative side is the positive one mirrored), writes
the activation responsibilities of each side into the side's buffer, and
returns the sufficient statistics every parameter update needs and the total
log-sum-exp. A side is swept in blocks through its own work buffers, which
stay in a core's L2 cache, and every weighted sum is taken inside the block
loop while the block is still there. No sum goes through a BLAS call long
enough for OpenBLAS to split it across threads, so the results do not
depend on the BLAS thread count.
When both sides hold at least ``_BLOCK`` points and two CPUs are usable, a
worker thread sweeps the negative side while the calling thread sweeps the
positive one. The two sweeps share no buffer and their results are combined
in side order, so the bits do not depend on the thread that ran a side
either.

Its coefficients come as an ``ExpectationCache``. The variational learners
fill it with posterior expectations. The maximum-likelihood log-densities
have the same form with point values in place of expectations
(``point_coefficients``, run by ``point_pass``), and then the total
log-sum-exp is the observed-data log-likelihood. ``kernel_coefficients``
turns the cache into each side's coefficients once per pass. Each family
states its own rules (``distributions.ComponentFamily``): whether it is
``inverse``, so that its log-weight reads 1/v where a Gamma's reads v. A pass
takes only what its caller reads (``_responsibility_pass``): per side the
activation's count and its sums of v, v**2, log v and 1/v for bgim, of v,
v**2 and log v for bggm, and of v and v**2 for a maximum-likelihood pass,
which is all the M-step reads; no sums for a pass whose caller reads only
the responsibilities. The total log-sum-exp is taken only by the passes
whose objective is read. Only this module reads the data cache
(``_DataCache``), which alone decides whether its sides hold the 1/v row
(``height``); a pass takes at most the rows it holds, and counts itself
(``passes_made``). The cache records the coefficients of the pass whose
responsibilities it holds, and ``responsibilities_at`` gives those or makes
one more pass. ``log_weights`` gives the kernel's log-weights as N x 3.

A large cache has a binned copy (``binned_cache``): per side, the points are
the means of narrow bins, and each bin keeps its count and its exact sums of
the rows. A pass on it weighs each bin's responsibility by those, so it costs
O(bins) and ends within second order in the bin width of a per-point pass;
its objective is biased, so the fit loop never compares it with a per-point
one (``fitloop.fit``).
"""

from __future__ import annotations

import contextvars
import math
import os
from dataclasses import dataclass

import numpy as np

from .distributions import _LOG_2PI, MixtureParams
from .special import log_gamma

# The Gaussian sums are the data totals minus the side sums. When the Gaussian
# holds less than this share of the count or of the sum of squares, that
# difference would cancel, and the kernel sums the Gaussian side weights
# directly instead.
_DIRECT_GAUSSIAN_SHARE = 1e-3

# Points per block of the per-side sweep. A block's four work buffers (1 MiB)
# stay in a core's 2 MiB L2 cache while its slices of the side arrays stream
# through. Each side has its own buffers, so the two sides can be swept on
# two cores at once; a side of fewer points than this is not worth a thread.
_BLOCK = 32768

# The longest side whose weighted sums are BLAS dot products, one per value
# row over the whole side, all taken by one ``np.vecdot`` call: it runs the
# same ``cblas_ddot`` per row as ``row @ w`` and gives the same bits, in one
# call instead of one per row. OpenBLAS runs a dot of at most 10 000 values
# on one thread, in an order that does not depend on its thread count, and
# splits longer dots across its threads. A longer side takes its sums per
# block with one einsum call for all value rows: einsum uses no BLAS and,
# unlike numpy's BLAS dot products and ``vecdot``, releases the interpreter
# lock, so the other side's thread runs meanwhile. On one thread the BLAS
# dots are the faster, and they keep the pinned results of the fits at
# n = 1e4, whose sides are shorter.
_BLAS_DOT_MAX = 8192

# The least count of nonzero values whose data cache has a binned copy
# (``binned_cache``), and the uniform bins per side of that copy. Binned fits
# saved 2-19 ms at 2e4 values; below this threshold every fit, those of the
# acceptance maps and the benchmark grid (1e4 values) among them, keeps its
# direct passes. Near the end point of the fit-large fit (3e5 values), a pass
# on 2048 bins per side overstated the log-sum-exp by 0.07 nats, a quarter of
# the bias at 1024, and the update after it moved pi by 1e-7; binning took
# about 4 ms (BENCH_binned.json).
_BINNED_MIN = 50_000
_BINS = 2048

# Floor of the shifted activation log-weight b - m before its exp. Below about
# -708 exp leaves the normal range, and numpy's exp drops off its vectorised
# path for such arguments (inverse-Gamma weights near zero reach -1e5).
# exp(-700) is about 1e-304 and vanishes next to the Gaussian weight's 1, so
# only responsibilities below about 1e-304 change: they become about 1e-304.
_EXP_FLOOR = -700.0


@dataclass
class ExpectationCache:
    """Coefficients of the responsibility pass: posterior expectations for the
    variational learners, point values for the maximum-likelihood ones."""

    pi: np.ndarray
    log_pi: np.ndarray
    mu: float
    mu2: float
    tau: float
    log_tau: float
    r: np.ndarray
    log_r: np.ndarray
    s: np.ndarray
    log_gamma_s: np.ndarray
    # Not a field, so the result document leaves it out. On a cache that
    # ``vb_em.expectations`` made: the state it was made for, digamma(d_hat),
    # digamma(c_hat) and trigamma(E[s]), which the KL reads again.
    kl_terms = None


@dataclass
class SufficientStats:
    """Soft-count statistics of one responsibility matrix.

    ``xbar`` is the signed weighted sum per component and ``sxx1`` the
    Gaussian's weighted sum of squares; ``log_x``, ``recip_x`` and ``sq_x``
    accumulate log, reciprocal and square of the mirrored values for the two
    activation components. The vector fields of a kernel pass are views of
    one array. After a maximum-likelihood pass (``point_pass``) ``log_x`` and
    ``recip_x`` are NaN, and after a bggm pass ``recip_x``: the update that
    follows does not read them, so the pass does not take them.
    """

    n: np.ndarray
    xbar: np.ndarray
    sxx1: float
    log_x: np.ndarray
    recip_x: np.ndarray
    sq_x: np.ndarray


def finite_data(data) -> np.ndarray:
    """``data`` as a flat float array; ValueError unless every value is finite."""
    x = np.asarray(data, dtype=float).ravel()
    if not np.all(np.isfinite(x)):
        raise ValueError("data must be finite")
    return x


def finite_data_and_gamma(data, gamma):
    """``finite_data(data)`` and ``gamma`` as a float array, its rows at exact
    zeros 0; ValueError unless ``gamma`` has one row of three per value."""
    x = finite_data(data)
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (x.size, 3):
        raise ValueError(f"gamma must have shape ({x.size}, 3), got {gamma.shape}")
    return x, np.where((x == 0.0)[:, None], 0.0, gamma)


def nonzero_values(x: np.ndarray) -> np.ndarray:
    """The values of flat ``x`` a fit counts: an exact zero is masked, as
    outside the mask of a statistic map, so no sum, objective or start counts
    it and its row is (1, 0, 0). ``x`` itself when it holds no zero."""
    return x if x.all() else x[x != 0.0]


class _Side:
    """One support side: the samples with ``sign * x > 0``, point by point or
    in bins.

    A per-point side (``_Side(x, sign, height)``) holds each sample: ``rows``
    are their indices in x, ``vals`` their mirrored values ``sign * x[rows]``,
    and ``sq``, ``logs`` and, if ``height`` is 4, ``invs`` the square, log
    and reciprocal of ``vals``: the ``height`` rows of ``stack``, in that
    order (with 3 rows ``invs`` is None). ``counts`` and ``sums`` are None:
    a pass weights each point once and takes its sums over ``stack``.

    A binned side (``_Side.binned``) has no ``rows``. Its points are the
    means of the nonempty bins of a per-point side, and ``stack`` holds the
    rows the log-weights read at those means. ``sums`` holds per bin its
    count and the exact sums of the per-point side's ``height`` rows, which a
    pass reads in place of ``stack``; ``counts`` is its first row.

    Each pass writes the side's activation responsibilities to ``g``.
    ``blocks`` are the side's blocks for the pass, with views of ``g`` and of
    the side's own work buffers; a side with no points has none.
    """

    __slots__ = ("sign", "rows", "counts", "sums", "stack", "vals", "sq", "logs", "invs", "g", "blocks")

    def __init__(self, x: np.ndarray, sign: float, height: int):
        self.sign, self.counts, self.sums = sign, None, None
        # For finite x, -x > 0 exactly when x < 0, and negation is exact.
        self.rows = np.flatnonzero(x > 0) if sign > 0 else np.flatnonzero(x < 0)
        self._allocate(height, self.rows.size)
        # "clip" spares the copy through a buffer that bounds checking makes.
        x.take(self.rows, out=self.vals, mode="clip")
        if sign < 0:
            np.negative(self.vals, out=self.vals)
        self._derive()

    @classmethod
    def binned(cls, side: "_Side") -> "_Side":
        """``side`` (per point) in ``_BINS`` uniform bins over [0, max v], of
        which the nonempty ones are kept. A bin's point is the mean of its
        values, kept inside the bin."""
        self = cls.__new__(cls)
        self.sign, self.rows = side.sign, None
        vals, height = side.vals, side.stack.shape[0]
        keep, width, weighted = np.empty(0, np.intp), 0.0, np.empty((height + 1, 0))
        if vals.size:
            # v / max v lies in (0, 1], and the bin index never falls as v
            # grows: each bin holds a run of the sorted values.
            index = np.divide(vals, vals.max())
            index *= _BINS
            index = index.astype(np.intp)
            np.minimum(index, _BINS - 1, out=index)
            counts = np.bincount(index, minlength=_BINS)
            keep, width = np.flatnonzero(counts), vals.max() / _BINS
            rows = (np.bincount(index, weights=row, minlength=_BINS) for row in side.stack)
            weighted = np.array([counts, *rows])[:, keep]
        self.sums, self.counts = weighted, weighted[0]
        self._allocate(height, keep.size)
        np.divide(self.sums[1], self.counts, out=self.vals)
        # The rounded mean of nearly tied values at an edge can fall just
        # outside the bin.
        np.clip(self.vals, keep * width, (keep + 1) * width, out=self.vals)
        self._derive()
        return self

    def _allocate(self, height: int, size: int):
        self.stack = _aligned_rows(height, size)
        self.vals, self.sq, self.logs = self.stack[:3]
        self.invs = self.stack[3] if height == 4 else None

    def _derive(self):
        """The rows after ``vals``, the responsibility buffer and the blocks."""
        np.multiply(self.vals, self.vals, out=self.sq)
        np.log(self.vals, out=self.logs)
        if self.invs is not None:
            np.divide(1.0, self.vals, out=self.invs)
        self.g = _aligned_empty(self.vals.size)
        self.blocks = _side_blocks(self)


class _DataCache:
    """Per-fit precomputations: the two support sides, the count ``n`` and
    totals of the nonzero values. Its sides hold each point; the copy that
    ``binned_cache`` makes holds them in bins, with the same count and
    totals. The cache alone decides how many rows of the
    side stack (v, v**2, log v, 1/v) it holds, ``height``: 4, with the
    reciprocals 1/v, if ``families`` (the fit's activation families) has an
    ``inverse`` one, whose log-weights and rate update read them, or is None;
    3 for a Gamma fit. A pass takes at most the rows its cache holds.

    The responsibility pass only ever combines these arrays with scalar
    coefficients, so everything data-dependent is computed exactly once per
    fit, each side's work and responsibility buffers included. Those hold
    the responsibilities of the last complete pass, ``coefficients`` its
    ``ExpectationCache`` (None before one), and ``passes`` counts the passes
    begun (``passes_made``). ``parallel``: both sides hold at least
    ``_BLOCK`` points and two CPUs are usable, so the sides are swept at
    once; the worker thread that sweeps the negative side is started by the
    first pass (``worker``) and ends with the cache.
    """

    __slots__ = ("x", "height", "sides", "n", "sum_x", "sum_sq", "coefficients", "passes", "parallel", "worker")

    def __init__(self, x: np.ndarray, families=None):
        height = 4 if families is None or any(fam.inverse for fam in families) else 3
        nonzero, sides = nonzero_values(x), (_Side(x, 1.0, height), _Side(x, -1.0, height))
        self._start(x, sides, nonzero.size, float(nonzero.sum()), float((nonzero * nonzero).sum()))

    def _start(self, x, sides: tuple, n: int, sum_x: float, sum_sq: float):
        """The state over ``sides`` and the totals of their values before a first pass."""
        self.x, self.sides, self.n, self.sum_x, self.sum_sq = x, sides, n, sum_x, sum_sq
        self.height = sides[0].stack.shape[0]
        self.coefficients, self.passes, self.worker = None, 0, None
        self.parallel = min(side.vals.size for side in sides) >= _BLOCK and _usable_cpus() >= 2


def binned_cache(cache: _DataCache) -> _DataCache | None:
    """A copy of ``cache`` whose sides are binned (``_Side.binned``), with the
    same height, count and totals; None when the cache holds fewer than
    ``_BINNED_MIN`` nonzero values. Its passes are counted apart, and its sides,
    of at most ``_BINS`` < ``_BLOCK`` points, are swept in turn. It holds no
    per-point responsibilities, so ``responsibilities_at`` does not take it."""
    if cache.n < _BINNED_MIN:
        return None
    binned = _DataCache.__new__(_DataCache)
    binned._start(None, tuple(map(_Side.binned, cache.sides)), cache.n, cache.sum_x, cache.sum_sq)
    return binned


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _aligned_empty(n: int) -> np.ndarray:
    """An uninitialised float array of ``n`` values starting on a 64-byte
    boundary.

    numpy's allocations are 16-byte aligned (large ones sit 16 bytes past a
    page boundary), so most of its AVX-512 loads would split two cache lines.
    On a Xeon with AVX-512, a side pass over arrays aligned to a cache line
    took 10-15 % less time, at 5e3 and at 3e4 points, than over arrays 16
    bytes off.
    """
    raw = np.empty(n + 8)
    start = (-raw.ctypes.data % 64) // 8
    return raw[start : start + n]


def _aligned_rows(rows: int, n: int) -> np.ndarray:
    """An uninitialised ``rows`` x ``n`` float array whose rows each start on
    a 64-byte boundary."""
    stride = -(-n // 8) * 8
    return _aligned_empty(rows * stride).reshape(rows, stride)[:, :n]


def _side_blocks(side: _Side) -> list:
    """One side cut into blocks of ``_BLOCK`` points. A block is (its first
    point, views of the rows of ``stack``, the block's view of the rows its
    sums read, views of the side's four work buffers, and the block's view
    of ``g``). The rows its sums read are ``stack``, or ``sums`` on a binned
    side."""
    work = _aligned_rows(4, min(_BLOCK, side.vals.size))
    summed = side.stack if side.sums is None else side.sums
    blocks = []
    for lo in range(0, side.vals.size, _BLOCK):
        hi = min(lo + _BLOCK, side.vals.size)
        blocks.append((lo, tuple(side.stack[:, lo:hi]), summed[:, lo:hi], tuple(work[:, : hi - lo]), side.g[lo:hi]))
    return blocks


def point_coefficients(params: MixtureParams) -> ExpectationCache:
    """Kernel coefficients of a point estimate: log pi (-inf for a zero
    proportion, with the divide warning the caller's ``np.errstate``
    decides), mu, mu**2, tau, log tau, s, r, log r and log Gamma(s). Built
    from Python floats: the arrays are views of one, and one ``np.log``
    takes the five logs of pi and r."""
    comp1, comp2, comp3 = params.comp1, params.comp2, params.comp3
    pi, s = params.pi.tolist(), [comp2.shape, comp3.shape]
    flat = np.array(pi + [comp2.rate, comp3.rate] + s + [log_gamma(v) for v in s])
    logs = np.log(flat[0:5])
    return ExpectationCache(
        pi=params.pi,
        log_pi=logs[0:3],
        mu=comp1.mu,
        mu2=comp1.mu * comp1.mu,
        tau=comp1.tau,
        log_tau=math.log(comp1.tau),
        r=flat[3:5],
        log_r=logs[3:5],
        s=flat[5:7],
        log_gamma_s=flat[7:9],
    )


def kernel_coefficients(e: ExpectationCache, families) -> tuple:
    """The kernel's coefficients under ``e`` as Python floats, one tuple
    (c_sq, c_x, c0, const, c_log, c_lin, inverse) per support side, positive
    side first. On a side's mirrored values v, the Gaussian's
    log-responsibility at x = sign * v is c_sq * v**2 + c_x * v + c0 (c0 is
    its value at x = 0), and the activation's is const + c_log * log v +
    c_lin * w, where w is 1/v if ``inverse`` (an inverse-Gamma) and v for a
    Gamma."""
    log_pi, r, log_r = e.log_pi.tolist(), e.r.tolist(), e.log_r.tolist()
    s, log_gamma_s = e.s.tolist(), e.log_gamma_s.tolist()
    tau, mu = float(e.tau), float(e.mu)
    c_sq, c_x = -0.5 * tau, tau * mu
    c0 = log_pi[0] + 0.5 * float(e.log_tau) - 0.5 * _LOG_2PI - 0.5 * tau * float(e.mu2)
    sides = []
    for k, fam in enumerate(families):
        const = log_pi[k + 1] + s[k] * log_r[k] - log_gamma_s[k]
        inverse = fam.inverse
        c_log = -(s[k] + 1.0) if inverse else s[k] - 1.0
        sides.append((c_sq, fam.sign * c_x, c0, const, c_log, -r[k], inverse))
    return tuple(sides)


def log_weights(x: np.ndarray, e: ExpectationCache, families) -> np.ndarray:
    """The unnormalized log-responsibilities of finite ``x`` under ``e`` as a
    full N x 3 matrix; -inf is out of support. The kernel's coefficients,
    combined in the kernel's order; the Gaussian's are the positive side's,
    for every x."""
    cache = _DataCache(x, families)
    lr = np.full((x.size, 3), -np.inf)
    coefficients = kernel_coefficients(e, families)
    c_sq, c_x, c0 = coefficients[0][:3]
    lr[:, 0] = x * x * c_sq + x * c_x + c0
    for k, (side, (*_, const, c_log, c_lin, inverse)) in enumerate(zip(cache.sides, coefficients)):
        lr[side.rows, k + 1] = side.logs * c_log + (side.invs if inverse else side.vals) * c_lin + const
    return lr


def _side_pass(coefficients: tuple, side: _Side, rows: int, objective: bool, direct: bool):
    """Two-way softmax of (Gaussian, activation) over one support side, with
    the side's ``kernel_coefficients``.

    The pass sweeps the side's blocks, writes the activation
    responsibilities into ``side.g`` and returns the side's log-sum-exp
    total if ``objective`` (else None), its degenerate points (activation 0,
    left out of the total) and its sums over the mirrored values v: unless
    ``rows`` is 0, the count and the sums of the first ``rows`` rows of the
    side's stack (v, v**2, log v, 1/v), weighted by the Gaussian's
    responsibilities on the side if ``direct``, else by the activation's. On
    a binned side, a bin's responsibility at its mean weighs the bin's count
    in the log-sum-exp, the degenerate points and the count, and its exact
    sums (``_Side.sums``) in the other sums. Within a narrow bin the
    responsibility is nearly linear in v, so the error of a sum is of second
    order in the bin width (EM on grouped data; McLachlan & Jones 1988).
    Each sum is taken per block, while the block is in cache (how:
    ``_BLAS_DOT_MAX``), and the block sums are added in block order; a sum
    does not depend on how many rows are taken. With a the Gaussian's and b
    the activation's log-weight and m = max(a, b), b - m is floored at
    ``_EXP_FLOOR`` unless the activation has a zero proportion. A point is
    degenerate exactly when m is not finite: its log-sum-exp is NaN then,
    and finite otherwise, so a pass without the objective finds the same
    degenerate points.
    """
    c_sq, c_x, c0, const, c_log, c_lin, inverse = coefficients
    floor = _EXP_FLOOR if math.isfinite(const) else -math.inf
    lse, degenerate = (0.0 if objective else None), 0
    blas = side.vals.size <= _BLAS_DOT_MAX
    sums = [0.0] * (rows + 1)
    for lo, values, summed, (a, b, m, t), gb in side.blocks:
        counts = None if side.sums is None else summed[0]
        vals, sq, logs = values[:3]
        np.multiply(sq, c_sq, out=a)
        np.multiply(vals, c_x, out=t)
        a += t
        a += c0
        np.multiply(logs, c_log, out=b)
        np.multiply(values[3] if inverse else vals, c_lin, out=t)
        b += t
        b += const
        np.maximum(a, b, out=m)
        a -= m
        np.exp(a, out=a)
        b -= m
        np.maximum(b, floor, out=b)
        np.exp(b, out=b)
        np.add(a, b, out=t)
        np.divide(b, t, out=gb)
        if direct:
            np.divide(a, t, out=a)
        if objective:
            np.log(t, out=t)
            t += m
            block = float(t.sum()) if counts is None else float(t @ counts)
            clean = math.isfinite(block)
        else:
            clean = bool(np.isfinite(m).all())
        if not clean:
            ok = np.isfinite(m)
            gb[~ok] = 0.0
            if direct:
                a[~ok] = 1.0
            if counts is None:
                degenerate += ok.size - int(np.count_nonzero(ok))
            else:
                degenerate += int(counts[~ok].sum())
            if objective:
                block = float(t[ok].sum()) if counts is None else float(t[ok] @ counts[ok])
        if objective:
            lse += block
        if not rows:
            continue
        w = a if direct else gb
        if counts is not None:
            block_sums = np.vecdot(summed[: rows + 1], w).tolist()
        elif blas:
            block_sums = [float(w.sum()), *np.vecdot(summed[:rows], w).tolist()]
        else:
            block_sums = [float(w.sum()), *np.einsum("ij,j->i", summed[:rows], w).tolist()]
        sums = block_sums if lo == 0 else [total + part for total, part in zip(sums, block_sums)]
    return lse, degenerate, sums


def _sweep(cache: _DataCache, coefficients: tuple, rows: int, objective: bool, direct: bool) -> list:
    """``_side_pass`` over both sides, in side order, with their
    ``kernel_coefficients``. With ``cache.parallel`` the worker thread sweeps
    the negative side in a copy of the caller's context, and so under its
    floating-point error handling (numpy keeps it in a context variable),
    while this thread sweeps the positive one; either way both sides are
    swept before this returns or raises (the positive side's error first)."""
    if not cache.parallel:
        return [
            _side_pass(c, side, rows, objective, direct)
            for c, side in zip(coefficients, cache.sides)
        ]
    if cache.worker is None:
        from concurrent.futures import ThreadPoolExecutor

        cache.worker = ThreadPoolExecutor(1, thread_name_prefix="gigmix-estep")
    negative = cache.worker.submit(
        contextvars.copy_context().run,
        _side_pass, coefficients[1], cache.sides[1], rows, objective, direct,
    )
    try:
        positive = _side_pass(coefficients[0], cache.sides[0], rows, objective, direct)
    finally:
        negative.exception()  # waits for the worker's side
    return [positive, negative.result()]


def _responsibility_pass(
    cache: _DataCache, e: ExpectationCache, families, rows: int = 4, objective: bool = True
):
    """One packed pass, counted on ``cache``: sufficient stats, total LSE
    and degenerate points; the responsibilities stay in ``cache`` (under ``e``).

    A pass takes only what its caller reads. The activation sums are those
    of the first ``rows`` rows of the side stack (v, v**2, log v, 1/v), at
    most the rows the cache holds (``_DataCache.height``); the statistics of
    the rows left out are NaN:

    - 4, every row the cache holds, for the variational updates: a Gamma
      fit's cache has no 1/v row and its updates read no sum of 1/v
      (``recip_x`` is NaN, on a side with no points too);
    - 2 for the maximum-likelihood M-step, which reads only the counts and
      the sums of x and x**2 (``log_x`` and ``recip_x`` are NaN);
    - 0 for a pass that only leaves its responsibilities
      (``responsibilities_at``). Its statistics are None.

    The total LSE (the maximum-likelihood log-likelihood, the data part of
    the variational NFE) is None unless ``objective``. Every pass that
    records a point takes it. A variational fit's first pass at its start
    and each SQUAREM candidate's pass at theta' (``vb_em._extrapolated``)
    feed only an update, and the direct Gaussian re-sweep only its sums:
    they skip the log and the sum of the per-point log-sum-exp. A pass
    without it finds the same degenerate points.

    Off-support responsibilities are identically zero by construction, and
    no side holds an exact zero, so the pass leaves the zeros out. A point
    with zero density under every component it can belong to is degenerate:
    it goes to the Gaussian and is left out of the total LSE.
    """
    cache.passes += 1
    cache.coefficients, rows = None, min(rows, cache.height)
    coefficients = kernel_coefficients(e, families)
    lse_total, degenerate = (0.0 if objective else None), 0
    sides = _sweep(cache, coefficients, rows, objective, False)
    for lse, bad, _ in sides:
        degenerate += bad
        if objective:
            lse_total += lse
    stats = _statistics(cache, coefficients, sides) if rows else None
    cache.coefficients = e
    return stats, lse_total, degenerate


def _statistics(cache: _DataCache, coefficients: tuple, sides: list) -> SufficientStats:
    """The pass's statistics from its side sums (``_side_pass``)."""
    # The Gaussian's sums start from the nonzero values' totals and each
    # side's are taken off in side order. ``xbar`` holds the signed sums.
    n1, sx1, sxx1 = cache.n, cache.sum_x, cache.sum_sq
    # The activation sums of log v and 1/v, positive side first; NaN unless
    # the pass takes them.
    n, xbar, sq, log_recip = [], [], [], [math.nan] * 4
    for k, (side, (_, _, sums)) in enumerate(zip(cache.sides, sides)):
        nk, sxk, sqk = sums[:3]
        n.append(nk)
        xbar.append(side.sign * sxk)
        sq.append(sqk)
        for j, total in enumerate(sums[3:]):  # log v, then 1/v
            log_recip[k + 2 * j] = total
        n1 -= nk
        sx1 -= xbar[-1]
        sxx1 -= sqk
    if n1 < _DIRECT_GAUSSIAN_SHARE * cache.n or sxx1 < _DIRECT_GAUSSIAN_SHARE * cache.sum_sq:
        # The same sweep again, summing the Gaussian's side weights directly.
        n1, sx1, sxx1 = 0.0, 0.0, 0.0
        direct = _sweep(cache, coefficients, 2, False, True)
        for side, (_, _, (nk, sxk, sqk)) in zip(cache.sides, direct):
            n1 += nk
            sx1 += side.sign * sxk
            sxx1 += sqk
    # One array holds every vector statistic; the fields are views of it.
    flat = np.array([n1, *n, sx1, *xbar, *sq, *log_recip])
    return SufficientStats(
        n=flat[0:3],
        xbar=flat[3:6],
        sxx1=sxx1,
        sq_x=flat[6:8],
        log_x=flat[8:10],
        recip_x=flat[10:12],
    )


def point_pass(cache: _DataCache, params: MixtureParams):
    """The kernel under a point estimate: the maximum-likelihood E-step. It
    takes only the sums the M-step reads, so the statistics' ``log_x`` and
    ``recip_x`` are NaN, and the log-likelihood; the coefficients it ran with
    come fourth. A zero proportion has log -inf and can leave points
    degenerate, whose NaNs are expected."""
    with np.errstate(divide="ignore", invalid="ignore"):
        e = point_coefficients(params)
        return (*_responsibility_pass(cache, e, params.families, 2), e)


def passes_made(cache: _DataCache) -> int:
    """Kernel passes begun on ``cache``, a pass that raised included."""
    return cache.passes


def responsibilities_at(cache: _DataCache, e: ExpectationCache, families) -> np.ndarray:
    """The N x 3 responsibilities under ``e``: the cache's own when its last
    pass ran under ``e``, else those of one more pass, which takes no sums
    and no objective. Each side's activation responsibilities are scattered
    once into one vector a (0 at an exact zero), the first column, and the
    columns are written whole: a [x > 0], a [x < 0], then 1 - a. A pass
    leaves each g finite and at least 0 (0 at a degenerate point), so each
    product is exactly a or 0."""
    if cache.coefficients is not e:
        _responsibility_pass(cache, e, families, 0, False)
    x = cache.x
    gamma = np.empty((x.size, 3))
    a = gamma[:, 0]
    a.fill(0.0)
    for side in cache.sides:
        a[side.rows] = side.g
    np.multiply(a, x > 0, out=gamma[:, 1])
    np.multiply(a, x < 0, out=gamma[:, 2])
    np.subtract(1.0, a, out=a)
    return gamma


def e_step(data, params: MixtureParams) -> np.ndarray:
    """N x 3 responsibilities under a point estimate; rows sum to 1 and
    respect the support signs. The pass takes no sums and no objective."""
    cache = _DataCache(finite_data(data), params.families)
    with np.errstate(divide="ignore", invalid="ignore"):
        return responsibilities_at(cache, point_coefficients(params), params.families)


def sufficient_stats(data, gamma: np.ndarray) -> SufficientStats:
    """Soft-count statistics of an arbitrary N x 3 responsibility matrix;
    ValueError unless the data are finite and ``gamma`` is N x 3."""
    x, gamma = finite_data_and_gamma(data, gamma)
    cache = _DataCache(x)
    sq = cache.x * cache.x
    sides = tuple(enumerate(cache.sides, start=1))
    return SufficientStats(
        n=gamma.sum(axis=0),
        xbar=gamma.T @ cache.x,
        sxx1=float(gamma[:, 0] @ sq),
        log_x=np.array([gamma[side.rows, k] @ side.logs for k, side in sides]),
        recip_x=np.array([gamma[side.rows, k] @ side.invs for k, side in sides]),
        sq_x=sq @ gamma[:, 1:],
    )
