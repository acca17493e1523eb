"""The one E-step kernel shared by all four learners and the initialization.

Each sample competes only between the Gaussian and the activation component
on its own side of zero; exact zeros belong to the Gaussian. The kernel runs
one two-way softmax per support side over arrays precomputed once per fit,
and returns the activation responsibilities of each side, the sufficient
statistics every parameter update needs, and the total log-sum-exp. A side is
swept in blocks through work buffers that stay in a core's L2 cache.

Its coefficients come as an ``ExpectationCache``. The variational learners
fill it with posterior expectations. The maximum-likelihood log-densities
have the same form with point values in place of expectations
(``point_coefficients``, run by ``point_pass``), and then the total
log-sum-exp is the observed-data log-likelihood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import MixtureParams
from .special import log_gamma

_LOG_2PI = math.log(2.0 * math.pi)

# The Gaussian sums are the data totals minus the side sums. When the Gaussian
# holds less than this share of the count or of the sum of squares, that
# difference would cancel, and the kernel sums the Gaussian side weights
# directly instead.
_DIRECT_GAUSSIAN_SHARE = 1e-3

# Points per block of the per-side sweep. A block's four work buffers (1 MiB)
# stay in a core's 2 MiB L2 cache while its slices of the side arrays stream
# through.
_BLOCK = 32768

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


@dataclass
class SufficientStats:
    """Soft-count statistics of one responsibility matrix.

    ``xbar`` is the signed weighted sum per component and ``sxx1`` the
    Gaussian's weighted sum of squares; ``log_x``, ``recip_x`` and ``sq_x``
    accumulate log, reciprocal and square of the mirrored values for the two
    activation components.
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


class _DataCache:
    """Per-fit precomputations: support indices and mirrored transforms.

    The responsibility pass only ever combines these arrays with scalar
    coefficients, so everything data-dependent is computed exactly once per
    fit. ``xp``/``xn`` hold the mirrored values on each support side, and
    ``blocks`` each side's blocks for the responsibility pass.
    """

    __slots__ = (
        "x",
        "sq",
        "pos",
        "neg",
        "zero",
        "xp",
        "xn",
        "sq_p",
        "sq_n",
        "log_xp",
        "log_xn",
        "inv_xp",
        "inv_xn",
        "sum_x",
        "sum_sq",
        "blocks",
    )

    def __init__(self, x: np.ndarray):
        self.x = x
        self.sq = x * x
        self.pos = np.nonzero(x > 0)[0]
        self.neg = np.nonzero(x < 0)[0]
        self.zero = np.nonzero(x == 0)[0]
        self.xp = _aligned(x[self.pos])
        self.xn = _aligned(-x[self.neg])
        self.sq_p = _aligned(self.xp * self.xp)
        self.sq_n = _aligned(self.xn * self.xn)
        self.log_xp = _aligned(np.log(self.xp))
        self.log_xn = _aligned(np.log(self.xn))
        self.inv_xp = _aligned(1.0 / self.xp)
        self.inv_xn = _aligned(1.0 / self.xn)
        self.sum_x = float(self.x.sum())
        self.sum_sq = float(self.sq.sum())
        # The responsibility pass's four work buffers, allocated once per fit,
        # and each side's blocks.
        length = min(_BLOCK, max(self.xp.size, self.xn.size))
        stride = -(-length // 8) * 8
        work = _aligned_empty(4 * stride).reshape(4, stride)[:, :length]
        self.blocks = (
            _side_blocks(work, self.xp, self.sq_p, self.log_xp, self.inv_xp),
            _side_blocks(work, self.xn, self.sq_n, self.log_xn, self.inv_xn),
        )


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


def _aligned(values: np.ndarray) -> np.ndarray:
    """A copy of a float array starting on a 64-byte boundary."""
    out = _aligned_empty(values.size)
    out[:] = values
    return out


def _side_blocks(work: np.ndarray, vals, sq, logs, invs) -> list:
    """One side cut into blocks of ``_BLOCK`` points. A block is (lo, hi,
    views of vals, sq, logs and invs, and views of the four work buffers)."""
    blocks = []
    for lo in range(0, vals.size, _BLOCK):
        hi = min(lo + _BLOCK, vals.size)
        views = tuple(v[lo:hi] for v in (vals, sq, logs, invs))
        blocks.append((lo, hi) + views + tuple(work[:, : hi - lo]))
    return blocks


def point_coefficients(params: MixtureParams) -> ExpectationCache:
    """Kernel coefficients of a point estimate: log pi (-inf for a zero
    proportion), mu, mu**2, tau, log tau, s, r, log r and log Gamma(s)."""
    with np.errstate(divide="ignore"):
        log_pi = np.log(params.pi)
    comp1, sides = params.comp1, (params.comp2, params.comp3)
    s = np.array([c.shape for c in sides])
    r = np.array([c.rate for c in sides])
    return ExpectationCache(
        pi=params.pi,
        log_pi=log_pi,
        mu=comp1.mu,
        mu2=comp1.mu * comp1.mu,
        tau=comp1.tau,
        log_tau=math.log(comp1.tau),
        r=r,
        log_r=np.log(r),
        s=s,
        log_gamma_s=np.array([log_gamma(float(v)) for v in s]),
    )


def _gaussian_const(e: ExpectationCache) -> float:
    """Gaussian log-responsibility at x = 0."""
    return e.log_pi[0] + 0.5 * e.log_tau - 0.5 * _LOG_2PI - 0.5 * e.tau * e.mu2


def _gaussian_coefficients(e: ExpectationCache, sign: float = 1.0):
    """The Gaussian's log-responsibility at x = sign * v as
    c_sq * v**2 + c_x * v + c0; returns (c_sq, c_x, c0)."""
    return -0.5 * e.tau, sign * (e.tau * e.mu), _gaussian_const(e)


def _activation_coefficients(e: ExpectationCache, k: int, fam):
    """Activation k's log-responsibility as const + c_log * log v + c_lin * w,
    where w is v for a Gamma and 1/v for an inverse-Gamma; returns
    (const, c_log, c_lin, w is 1/v)."""
    const = e.log_pi[k + 1] + e.s[k] * e.log_r[k] - e.log_gamma_s[k]
    if fam.kind == "gamma":
        return const, e.s[k] - 1.0, -e.r[k], False
    return const, -(e.s[k] + 1.0), -e.r[k], True


def _side_pass(e: ExpectationCache, k: int, fam, sign: float, blocks, g, direct: bool):
    """Two-way softmax of (Gaussian, activation k) over one support side.

    ``blocks`` are the side's blocks from ``_DataCache``. The pass writes the
    activation responsibilities into ``g`` and returns the side's log-sum-exp
    total, its degenerate points (activation 0, left out of the total) and,
    if ``direct``, the Gaussian's count, mirrored sum and sum of squares on
    the side, else zeros. With a the Gaussian's and b the activation's
    log-weight and m = max(a, b), b - m is floored at ``_EXP_FLOOR`` unless
    the activation has a zero proportion.
    """
    c_sq, c_x, c0 = _gaussian_coefficients(e, sign)
    const, c_log, c_lin, inverse = _activation_coefficients(e, k, fam)
    floor = _EXP_FLOOR if math.isfinite(const) else -math.inf
    lse, degenerate, n1, sx1, sxx1 = 0.0, 0, 0.0, 0.0, 0.0
    for lo, hi, vals, sq, logs, invs, a, b, m, t in blocks:
        gb = g[lo:hi]
        np.multiply(sq, c_sq, out=a)
        np.multiply(vals, c_x, out=t)
        a += t
        a += c0
        np.multiply(logs, c_log, out=b)
        np.multiply(invs if inverse else vals, c_lin, out=t)
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
        np.log(t, out=t)
        t += m
        block = float(t.sum())
        if not math.isfinite(block):
            ok = np.isfinite(t)
            gb[~ok] = 0.0
            if direct:
                a[~ok] = 1.0
            degenerate += ok.size - int(np.count_nonzero(ok))
            block = float(t[ok].sum())
        lse += block
        if direct:
            n1 += float(a.sum())
            sx1 += float(a @ vals)
            sxx1 += float(a @ sq)
    return lse, degenerate, (n1, sx1, sxx1)


def _responsibility_pass(cache: _DataCache, e: ExpectationCache, families):
    """One packed pass: side responsibilities, sufficient stats, total LSE and
    the number of degenerate points.

    Off-support responsibilities are identically zero by construction; data
    points at exactly zero are assigned to the Gaussian. A point with zero
    density under every component it can belong to is degenerate: it goes to
    the Gaussian and is left out of the total LSE.
    """
    g2 = _aligned_empty(cache.xp.size)
    g3 = _aligned_empty(cache.xn.size)
    sides = (
        (e, 0, families[0], 1.0, cache.blocks[0], g2),
        (e, 1, families[1], -1.0, cache.blocks[1], g3),
    )
    lse_total, degenerate = 0.0, 0
    for args in sides:
        lse, bad, _ = _side_pass(*args, False)
        lse_total += lse
        degenerate += bad
    lse_zero = cache.zero.size * _gaussian_const(e) if cache.zero.size else 0.0
    if math.isfinite(lse_zero):
        lse_total += lse_zero
    else:
        degenerate += cache.zero.size

    n2 = float(g2.sum())
    n3 = float(g3.sum())
    sx2 = float(g2 @ cache.xp)
    sx3 = float(g3 @ cache.xn)
    sq2 = float(g2 @ cache.sq_p)
    sq3 = float(g3 @ cache.sq_n)
    n1 = cache.x.size - n2 - n3
    sx1 = cache.sum_x - sx2 + sx3
    sxx1 = cache.sum_sq - sq2 - sq3
    if n1 < _DIRECT_GAUSSIAN_SHARE * cache.x.size or sxx1 < _DIRECT_GAUSSIAN_SHARE * cache.sum_sq:
        # The same sweep again, summing the Gaussian's side weights directly.
        (pn, psx, psq), (nn, nsx, nsq) = (_side_pass(*args, True)[2] for args in sides)
        n1 = cache.zero.size + pn + nn
        sx1 = psx - nsx
        sxx1 = psq + nsq
    stats = SufficientStats(
        n=np.array([n1, n2, n3]),
        xbar=np.array([sx1, sx2, -sx3]),
        sxx1=sxx1,
        log_x=np.array([float(g2 @ cache.log_xp), float(g3 @ cache.log_xn)]),
        recip_x=np.array([float(g2 @ cache.inv_xp), float(g3 @ cache.inv_xn)]),
        sq_x=np.array([sq2, sq3]),
    )
    return g2, g3, stats, lse_total, degenerate


def point_pass(cache: _DataCache, params: MixtureParams):
    """The kernel under a point estimate: the maximum-likelihood E-step. A zero
    proportion can leave points degenerate, whose NaNs are expected."""
    with np.errstate(invalid="ignore"):
        return _responsibility_pass(cache, point_coefficients(params), params.families)


def _assemble_gamma(cache: _DataCache, g2: np.ndarray, g3: np.ndarray) -> np.ndarray:
    gamma = np.zeros((cache.x.size, 3))
    gamma[:, 0] = 1.0
    gamma[cache.pos, 0] = 1.0 - g2
    gamma[cache.pos, 1] = g2
    gamma[cache.neg, 0] = 1.0 - g3
    gamma[cache.neg, 2] = g3
    return gamma


def e_step(data, params: MixtureParams) -> np.ndarray:
    """N x 3 responsibilities under a point estimate; rows sum to 1 and
    respect the support signs."""
    cache = _DataCache(finite_data(data))
    g2, g3, _, _, _ = point_pass(cache, params)
    return _assemble_gamma(cache, g2, g3)


def sufficient_stats(data, gamma: np.ndarray) -> SufficientStats:
    """Soft-count statistics of an arbitrary N x 3 responsibility matrix."""
    cache = _DataCache(np.asarray(data, dtype=float).ravel())
    return SufficientStats(
        n=gamma.sum(axis=0),
        xbar=gamma.T @ cache.x,
        sxx1=float(gamma[:, 0] @ cache.sq),
        log_x=np.array(
            [gamma[cache.pos, 1] @ cache.log_xp, gamma[cache.neg, 2] @ cache.log_xn]
        ),
        recip_x=np.array(
            [gamma[cache.pos, 1] @ cache.inv_xp, gamma[cache.neg, 2] @ cache.inv_xn]
        ),
        sq_x=cache.sq @ gamma[:, 1:],
    )
