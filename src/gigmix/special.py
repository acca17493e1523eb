"""Scalar special functions: log-gamma, the digamma family, and inverse digamma.

All functions take a single positive float and use only the ``math`` module,
so importing them loads nothing beyond the standard library. Log-gamma is
``math.lgamma``. The digamma family shifts the argument upward with the
standard recurrences until it is large enough for the Bernoulli-number
asymptotic series (Bernardo 1976, AS 103). Over the whole domain every
function stays within about 1e-15 * max(1, |value|) of ``scipy.special``.

Near zero the recurrence terms are formed from the reciprocal 1/x, so that
where the true value exceeds the float range they overflow to +/-inf rather
than dividing by an underflowed x**2 or x**3.
"""

import math

EULER_GAMMA = 0.5772156649015329

# Below this, arguments are treated as a collapsed upstream computation
# rather than silently yielding +/-inf.
_MIN_ARG = 1e-300

# The asymptotic series are applied for arguments >= this; smaller arguments
# are shifted up by recurrence first.
_SHIFT = 10.0


def _checked(x, name: str) -> float:
    x = float(x)
    if not math.isfinite(x) or x < _MIN_ARG:
        raise ValueError(f"{name} must be a positive finite real, got {x!r}")
    return x


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0; +inf past the float
    range (x above about 2.6e305)."""
    try:
        return math.lgamma(_checked(x, "x"))
    except OverflowError:
        return math.inf


def _digamma_tail(acc: float, x: float, t: float) -> float:
    """``acc`` plus digamma's asymptotic series at x >= ``_SHIFT``, t = 1/x**2."""
    # sum B_2n / (2n x^2n), n = 1..7
    series = t * (
        1.0 / 12.0
        + t
        * (
            -1.0 / 120.0
            + t
            * (
                1.0 / 252.0
                + t
                * (
                    -1.0 / 240.0
                    + t * (1.0 / 132.0 + t * (-691.0 / 32760.0 + t * (1.0 / 12.0)))
                )
            )
        )
    )
    return acc + math.log(x) - 0.5 / x - series


def _trigamma_tail(acc: float, x: float, t: float) -> float:
    """``acc`` plus trigamma's asymptotic series at x >= ``_SHIFT``, t = 1/x**2."""
    # (1 + 1/(2x) + sum B_2n / x^2n, n = 1..7) / x
    series = (
        1.0
        + 0.5 / x
        + t
        * (
            1.0 / 6.0
            + t
            * (
                -1.0 / 30.0
                + t
                * (
                    1.0 / 42.0
                    + t
                    * (
                        -1.0 / 30.0
                        + t * (5.0 / 66.0 + t * (-691.0 / 2730.0 + t * (7.0 / 6.0)))
                    )
                )
            )
        )
    ) / x
    return acc + series


def _tetragamma_tail(acc: float, x: float, t: float) -> float:
    """``acc`` plus tetragamma's asymptotic series at x >= ``_SHIFT``, t = 1/x**2."""
    # -(1/x^2 + 1/x^3 + sum (2n+1) B_2n / x^(2n+2), n = 1..7)
    series = -t * (
        1.0
        + 1.0 / x
        + t
        * (
            0.5
            + t
            * (
                -1.0 / 6.0
                + t
                * (
                    1.0 / 6.0
                    + t
                    * (
                        -3.0 / 10.0
                        + t * (5.0 / 6.0 + t * (-691.0 / 210.0 + t * (35.0 / 2.0)))
                    )
                )
            )
        )
    )
    return acc + series


def digamma(x: float) -> float:
    """Digamma function, the derivative of ``log_gamma``, for x > 0."""
    x = _checked(x, "x")
    acc = 0.0
    while x < _SHIFT:
        acc -= 1.0 / x
        x += 1.0
    return _digamma_tail(acc, x, 1.0 / (x * x))


def trigamma(x: float) -> float:
    """First derivative of digamma; strictly positive on x > 0."""
    x = _checked(x, "x")
    acc = 0.0
    while x < _SHIFT:
        r = 1.0 / x
        acc += r * r
        x += 1.0
    return _trigamma_tail(acc, x, 1.0 / (x * x))


def tetragamma(x: float) -> float:
    """Second derivative of digamma; strictly negative on x > 0."""
    return trigamma_tetragamma(x)[1]


def trigamma_tetragamma(x: float) -> tuple:
    """``(trigamma(x), tetragamma(x))`` from one upward recurrence, bit for
    bit the two functions' values."""
    x = _checked(x, "x")
    tri = tetra = 0.0
    while x < _SHIFT:
        r = 1.0 / x
        tri += r * r
        tetra -= 2.0 * r * r * r
        x += 1.0
    t = 1.0 / (x * x)
    return _trigamma_tail(tri, x, t), _tetragamma_tail(tetra, x, t)


def inv_digamma(y: float) -> float:
    """Solve digamma(x) = y for x > 0 by Newton iteration.

    The starting point follows the usual two-branch rule: exp(y) + 1/2 for
    moderate-to-large y and -1/(y + Euler-Mascheroni) in the left tail, after
    which 3-5 Newton steps reach |digamma(x) - y| < 1e-12. For y above about
    709.78 the root exceeds the float range, and a ValueError says so.
    """
    y = float(y)
    if not math.isfinite(y):
        raise ValueError(f"y must be finite, got {y!r}")
    if y >= -2.22:
        try:
            x = math.exp(y) + 0.5
        except OverflowError:
            raise ValueError(f"the root of digamma(x) = {y!r} exceeds the float range") from None
    else:
        x = -1.0 / (y + EULER_GAMMA)
    for _ in range(50):
        # digamma(x) and trigamma(x) from one upward recurrence, bit for bit
        # the two functions' values; trigamma's series only if a step follows.
        z = _checked(x, "x")
        psi = tri = 0.0
        while z < _SHIFT:
            r = 1.0 / z
            psi -= r
            tri += r * r
            z += 1.0
        t = 1.0 / (z * z)
        f = _digamma_tail(psi, z, t) - y
        if abs(f) < 1e-12:
            return x
        step = f / _trigamma_tail(tri, z, t)
        nxt = x - step
        if nxt <= 0.0:
            nxt = 0.5 * x
        x = nxt
    return x
