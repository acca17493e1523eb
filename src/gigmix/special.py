"""Scalar special functions: log-gamma, the digamma family, and inverse digamma.

Checked scalar wrappers over ``scipy.special``. Trigamma and tetragamma use
the Hurwitz zeta function, psi'(x) = zeta(2, x) and psi''(x) = -2 zeta(3, x),
which costs far less per scalar call than ``polygamma``.
"""

import math

from scipy.special import gammaln, psi, zeta

EULER_GAMMA = 0.5772156649015329

# Below this, arguments are treated as a collapsed upstream computation
# rather than silently yielding +/-inf.
_MIN_ARG = 1e-300


def _checked(x, name: str) -> float:
    x = float(x)
    if not math.isfinite(x) or x < _MIN_ARG:
        raise ValueError(f"{name} must be a positive finite real, got {x!r}")
    return x


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0."""
    return float(gammaln(_checked(x, "x")))


def digamma(x: float) -> float:
    """Digamma function, the derivative of ``log_gamma``, for x > 0."""
    return float(psi(_checked(x, "x")))


def trigamma(x: float) -> float:
    """First derivative of digamma; strictly positive on x > 0."""
    return float(zeta(2.0, _checked(x, "x")))


def tetragamma(x: float) -> float:
    """Second derivative of digamma; strictly negative on x > 0."""
    return -2.0 * float(zeta(3.0, _checked(x, "x")))


def inv_digamma(y: float) -> float:
    """Solve digamma(x) = y for x > 0 by Newton iteration.

    The starting point follows the usual two-branch rule: exp(y) + 1/2 for
    moderate-to-large y and -1/(y + Euler-Mascheroni) in the left tail, after
    which 3-5 Newton steps reach |digamma(x) - y| < 1e-12.
    """
    y = float(y)
    if not math.isfinite(y):
        raise ValueError(f"y must be finite, got {y!r}")
    if y >= -2.22:
        x = math.exp(y) + 0.5
    else:
        x = -1.0 / (y + EULER_GAMMA)
    for _ in range(50):
        f = digamma(x) - y
        if abs(f) < 1e-12:
            return x
        step = f / trigamma(x)
        nxt = x - step
        if nxt <= 0.0:
            nxt = 0.5 * x
        x = nxt
    return x
